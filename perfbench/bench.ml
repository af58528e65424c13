(* The repository benchmark (see BENCHMARK.json and perfbench/spec.json).

   bench.exe --workload W --seed N --seconds S --trace 0|1 --roccc PATH
             --jobs N [--corrupt-reference]

   Three closed-loop workloads, each loading different layers:
   - compile-cold: one op compiles every gallery kernel cold and checks
     it with Driver.verify (engine vs C interpreter);
   - serve-mixed: a real `roccc serve` child driven over [jobs]
     connections (hits on primed gallery keys, unique cold FIR variants,
     health probes);
   - cosim-long: one op co-simulates the fir -> smooth network at a
     2048-element stream and checks it against Net.sequential.

   Only public entry points are timed. The last stdout line is one JSON
   object: {"correct","attempted","failed","metrics"}; with --trace 0 the
   metrics are the end-to-end set, with --trace 1 the per-layer metrics
   of the layers the workload runs (run.py reports the others as 0). *)

module Driver = Roccc_core.Driver
module Kernels = Roccc_core.Kernels
module Pass = Roccc_core.Pass
module Net = Roccc_net.Net
module Json = Roccc_service.Json
module Service = Roccc_service.Service
module Engine = Roccc_hw.Engine
module Pipeline = Roccc_datapath.Pipeline
module Area = Roccc_fpga.Area
module Interp = Roccc_cfront.Interp

let now = Unix.gettimeofday
let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt
let warn fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s)) fmt

(* ------------------------------------------------------------------ *)
(* Run rules                                                           *)
(* ------------------------------------------------------------------ *)

(* A timed phase runs for --seconds and at least [min_ops] ops, so that
   op_ms.p90 always has ten samples beyond it. [hard_cap_s] keeps a run
   on a very slow host under three minutes. *)
let min_ops = 100
let hard_cap_s = 100.0

(* Set-ups per --trace 0 run; setup_s is their median. The first comes
   before the timed phase, the others are spread over it (see [spread]),
   so their median samples the host over the same window as the ops. *)
let setups = 21

(* peak_rss_mb is read after this many timed ops, so it measures a fixed
   amount of work and does not follow how many ops a run completes (the
   serve memory cache has no eviction). *)
let checkpoint_ops = function
  | "compile-cold" -> 20
  | "serve-mixed" -> 3000
  | _ -> 50

(* ------------------------------------------------------------------ *)
(* Statistics and output                                               *)
(* ------------------------------------------------------------------ *)

(* Growable float sample. *)
type sample = { mutable data : float array; mutable n : int }

let sample () = { data = Array.make 256 0.0; n = 0 }

let push s v =
  if s.n = Array.length s.data then begin
    let d = Array.make (2 * s.n) 0.0 in
    Array.blit s.data 0 d 0 s.n;
    s.data <- d
  end;
  s.data.(s.n) <- v;
  s.n <- s.n + 1

(* Nearest-rank percentile; nan when empty. *)
let pct s q =
  if s.n = 0 then nan
  else begin
    let a = Array.sub s.data 0 s.n in
    Array.sort compare a;
    let k = int_of_float (Float.ceil (q *. float_of_int s.n)) - 1 in
    a.(max 0 (min (s.n - 1) k))
  end

(* Samples strictly above the nearest-rank q-th percentile position. *)
let beyond s q = s.n - int_of_float (Float.ceil (q *. float_of_int s.n))

let median_list l =
  let s = sample () in
  List.iter (push s) l;
  pct s 0.5

let add_to tbl key v =
  Hashtbl.replace tbl key (v +. Option.value (Hashtbl.find_opt tbl key) ~default:0.0)

let geomean l =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 l /. float_of_int (List.length l))

let vm_hwm_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    List.fold_left
      (fun acc line ->
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        else acc)
      nan
      (String.split_on_char '\n' text)

type metric = string * float * string  (* name, value, unit *)

type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : metric list;
}

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_outcome (o : outcome) =
  let ms =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v)
          unit)
      o.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.correct o.attempted o.failed (String.concat ", " ms)

(* ------------------------------------------------------------------ *)
(* Timed phases                                                        *)
(* ------------------------------------------------------------------ *)

type phase = {
  ph_ops : int;
  ph_failed : int;
  ph_window_s : float;
  ph_op_ms : sample;
  ph_rss_mb : float;  (* VmHWM at the checkpoint *)
}

let ops_per_s ph = float_of_int ph.ph_ops /. ph.ph_window_s

(* [n] repeated set-ups spread over a timed phase: the k-th runs once the
   phase's clock passes k/(n+1) of its seconds. The phase pauses its
   clock while one runs. *)
type spread = { mutable left : int; mutable next : int; every_s : float; again : unit -> unit }

let spread ~seconds n again =
  { left = n; next = 1; every_s = seconds /. float_of_int (n + 1); again }

let no_spread = spread ~seconds:1.0 0 ignore

let due sp window = sp.left > 0 && window >= float_of_int sp.next *. sp.every_s

(* Run the next set-up; returns the seconds it took. *)
let run_next sp =
  let t0 = now () in
  sp.left <- sp.left - 1;
  sp.next <- sp.next + 1;
  sp.again ();
  now () -. t0

(* The set-ups a phase ended before reaching. *)
let finish sp = while sp.left > 0 do ignore (run_next sp) done

external allowed_cpus : unit -> int array = "bench_allowed_cpus"
external pin_cpu : int -> bool = "bench_pin_cpu"

(* A host's CPUs can run at different speeds for seconds at a time: on a
   2-vCPU virtual machine each vCPU switched between two speeds 1.5x
   apart, independently of the other. A single thread left on the CPU the
   scheduler chose would time that one CPU, so a closed loop runs op [i]
   on the [i mod n]-th of the [n] CPUs it may use. *)
let cpus = allowed_cpus ()

let pin_for_op i =
  if Array.length cpus > 1 then ignore (pin_cpu cpus.(i mod Array.length cpus))

(* Run [op i] (returning true when its output checked out) in a closed
   loop for [seconds] and at least [min_ops] ops, running the set-ups of
   [between] as they fall due. [rss] reads the compiler process's VmHWM;
   it is sampled after [checkpoint] ops, and no set-up of [between] runs
   before that, so the mark covers one set-up and a fixed number of ops. *)
let run_phase ?(between = no_spread) ~seconds ~min_ops ~checkpoint ~rss op : phase =
  let op_ms = sample () in
  let failed = ref 0 in
  let rss_mb = ref nan in
  let paused = ref 0.0 in
  let t0 = now () in
  let window () = now () -. t0 -. !paused in
  let rec go i =
    let elapsed = window () in
    if (elapsed >= seconds && i >= min_ops) || elapsed >= hard_cap_s then i
    else if i > checkpoint && due between elapsed then begin
      paused := !paused +. run_next between;
      go i
    end
    else begin
      if i = checkpoint then rss_mb := rss ();
      pin_for_op i;
      let s = now () in
      let ok = op i in
      push op_ms ((now () -. s) *. 1e3);
      if not ok then incr failed;
      go (i + 1)
    end
  in
  let ops = go 0 in
  let window = window () in
  if Float.is_nan !rss_mb then rss_mb := rss ();
  finish between;
  { ph_ops = ops; ph_failed = !failed; ph_window_s = window; ph_op_ms = op_ms;
    ph_rss_mb = !rss_mb }

let timing_metrics ph : metric list =
  if beyond ph.ph_op_ms 0.9 < 10 then
    warn "only %d samples beyond op_ms.p90" (beyond ph.ph_op_ms 0.9);
  [ "ops_per_s", ops_per_s ph, "1/s";
    "op_ms.p50", pct ph.ph_op_ms 0.5, "ms";
    "op_ms.p90", pct ph.ph_op_ms 0.9, "ms";
    ( "ops_ok_ratio",
      float_of_int (ph.ph_ops - ph.ph_failed) /. float_of_int ph.ph_ops,
      "ratio" );
    "peak_rss_mb", ph.ph_rss_mb, "MB" ]

(* Set-up times and whether every set-up checked out. *)
type setup_log = { mutable times : float list; mutable all_ok : bool }

let record log t ok =
  log.times <- t :: log.times;
  log.all_ok <- log.all_ok && ok

let setup_s log = median_list log.times

(* Set up once and keep the result; [again] sets up once more, timed, and
   checks that its [signature] (the references and the design set)
   repeats exactly. *)
let timed_setups setup signature =
  let timed () =
    let t0 = now () in
    let r = setup () in
    now () -. t0, r
  in
  let t, first = timed () in
  let log = { times = [ t ]; all_ok = true } in
  let again () =
    let t, r = timed () in
    record log t (signature r = signature first)
  in
  first, log, again

(* The four quality-of-result metrics over a fixed design set. *)
type design = { d_slices : int; d_clock : float; d_latch : int }

(* [cycles] is the simulated cycle count of the same design set. *)
let quality_metrics ~cycles (ds : design list) : metric list =
  let sum f = float_of_int (List.fold_left (fun a d -> a + f d) 0 ds) in
  [ "slices_total", sum (fun d -> d.d_slices), "slices";
    "clock_mhz.geomean", geomean (List.map (fun d -> d.d_clock) ds), "MHz";
    "latch_bits_total", sum (fun d -> d.d_latch), "bits";
    "sim_cycles_total", float_of_int cycles, "cycles" ]

let pass_names = Pass.pass_names ()

let layer_of_pass name =
  match Pass.find name with
  | Some p -> Pass.layer_name p.Pass.layer
  | None -> "core"

let layers = [ "cfront"; "hir"; "vm"; "datapath"; "vhdl"; "fpga" ]

(* ------------------------------------------------------------------ *)
(* Shared design identity                                              *)
(* ------------------------------------------------------------------ *)

(* What a compile must reproduce exactly: metrics and the VHDL bytes.
   The digest is taken over the files as the server serialises them, so
   in-process compiles and serve replies compare directly. *)
type ident = {
  id_slices : int;
  id_clock : string;  (* as the JSON printer renders it *)
  id_latch : int;
  id_vhdl : Digest.t;
}

let vhdl_json_digest files =
  Digest.string
    (Json.to_string (Json.Obj (List.map (fun (f, t) -> f, Json.Str t) files)))

(* With [~vhdl:false] the VHDL is not printed and [id_vhdl] is empty:
   compare such an ident with [same_quality]. *)
let ident_of ?(vhdl = true) (c : Driver.compiled) =
  { id_slices = c.Driver.area.Area.slices;
    id_clock = Json.to_string (Json.Num c.Driver.area.Area.clock_mhz);
    id_latch = c.Driver.pipeline.Pipeline.latch_bits;
    id_vhdl = (if vhdl then vhdl_json_digest (Service.vhdl_files c) else "") }

let same_quality a b =
  a.id_slices = b.id_slices && a.id_clock = b.id_clock && a.id_latch = b.id_latch

let corrupt_ident id =
  { id with id_slices = id.id_slices + 1; id_vhdl = Digest.string ("corrupt" ^ id.id_vhdl) }

let design_of (c : Driver.compiled) =
  { d_slices = c.Driver.area.Area.slices;
    d_clock = c.Driver.area.Area.clock_mhz;
    d_latch = c.Driver.pipeline.Pipeline.latch_bits }

(* ------------------------------------------------------------------ *)
(* compile-cold                                                        *)
(* ------------------------------------------------------------------ *)

type kin = {
  k : Kernels.benchmark;
  opts : Driver.options;
  arrays : (string * int64 array) list;
}

(* The gallery plus the wavelet column pass: the nine Table 1 rows,
   modsq and wavelet_cols. *)
let cold_kernels () =
  List.map
    (fun b ->
      { k = b; opts = b.Kernels.tune Driver.default_options;
        arrays = b.Kernels.arrays () })
    (Kernels.gallery @ [ Kernels.wavelet_cols ])

let compile_kin ?instrument ki =
  Driver.compile ?instrument ~options:ki.opts ~luts:ki.k.Kernels.luts
    ~entry:ki.k.Kernels.entry ki.k.Kernels.source

let verify_kin ki c =
  Driver.verify ~scalars:ki.k.Kernels.scalars ~arrays:ki.arrays c = []

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

type cold_trace = {
  pass_s : (string, float) Hashtbl.t;
  kernel_s : (string, float) Hashtbl.t;
  mutable verify_s : float;
  mutable op_s : float;
  mutable moves : int;
  mutable greedy_bits : int;
}

let compile_cold ~seed ~seconds ~trace ~corrupt : outcome =
  let setup () =
    let kins = Array.of_list (cold_kernels ()) in
    (* the untimed warm-up op fixes the references every timed op must
       reproduce, and the fixed design set behind the quality metrics *)
    let compiled = Array.map compile_kin kins in
    let cycles =
      Array.fold_left ( + ) 0
        (Array.mapi
           (fun i c ->
             let ki = kins.(i) in
             (Driver.simulate ~scalars:ki.k.Kernels.scalars ~arrays:ki.arrays c)
               .Engine.cycles)
           compiled)
    in
    ( kins,
      Array.map ident_of compiled,
      (Array.to_list (Array.map design_of compiled), cycles),
      Array.for_all2 verify_kin kins compiled )
  in
  let (kins, refs, (designs, cycles), setup_ok), log, again =
    timed_setups setup (fun (_, r, d, _) -> r, d)
  in
  if corrupt then refs.(0) <- corrupt_ident refs.(0);
  let rng = Random.State.make [| seed; 0xc01d |] in
  let order () = shuffle rng (Array.init (Array.length kins) Fun.id) in
  (* an op checks each design's engine against the interpreter and its
     quality metrics against the set-up compile; the VHDL bytes are
     checked once, after the timed phase *)
  let same_design i c = same_quality (ident_of ~vhdl:false c) refs.(i) in
  let op ?tr _ =
    let ok = ref true in
    Array.iter
      (fun i ->
        let ki = kins.(i) in
        match tr with
        | None ->
          let c = compile_kin ki in
          ok := !ok && verify_kin ki c && same_design i c
        | Some tr ->
          let t0 = now () in
          let instrument (ps : Driver.pass_stats) =
            add_to tr.pass_s ps.Driver.pass_name ps.Driver.elapsed_s
          in
          let c = compile_kin ~instrument ki in
          let t1 = now () in
          let v = verify_kin ki c in
          let t2 = now () in
          add_to tr.kernel_s ki.k.Kernels.bench_name (t1 -. t0);
          tr.verify_s <- tr.verify_s +. (t2 -. t1);
          tr.moves <- tr.moves + c.Driver.pipeline.Pipeline.retime_moves;
          tr.greedy_bits <-
            tr.greedy_bits + c.Driver.pipeline.Pipeline.greedy_latch_bits;
          ok := !ok && v && same_design i c)
      (order ());
    !ok
  in
  let same_vhdl () =
    Array.for_all2 (fun ki r -> ident_of (compile_kin ki) = r) kins refs
  in
  let rss () = vm_hwm_mb () in
  let checkpoint = checkpoint_ops "compile-cold" in
  if not trace then begin
    let between = spread ~seconds (setups - 1) again in
    let ph = run_phase ~between ~seconds ~min_ops ~checkpoint ~rss (fun i -> op i) in
    { attempted = ph.ph_ops; failed = ph.ph_failed;
      correct = ph.ph_failed = 0 && setup_ok && log.all_ok && same_vhdl ();
      metrics =
        ("setup_s", setup_s log, "s") :: timing_metrics ph @ quality_metrics ~cycles designs }
  end
  else begin
    let half = seconds /. 2.0 in
    let plain = run_phase ~seconds:half ~min_ops:1 ~checkpoint ~rss (fun i -> op i) in
    let tr =
      { pass_s = Hashtbl.create 32; kernel_s = Hashtbl.create 16;
        verify_s = 0.0; op_s = 0.0; moves = 0; greedy_bits = 0 }
    in
    let traced =
      run_phase ~seconds:half ~min_ops:1 ~checkpoint ~rss (fun i ->
          let t0 = now () in
          let ok = op ~tr i in
          tr.op_s <- tr.op_s +. (now () -. t0);
          ok)
    in
    let n = float_of_int traced.ph_ops in
    let per_op s = s *. 1e3 /. n in
    let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0 in
    let pass_total = Hashtbl.fold (fun _ v a -> a +. v) tr.pass_s 0.0 in
    let cold_layer =
      List.map (fun p -> "pass." ^ p ^ ".ms", per_op (get tr.pass_s p), "ms") pass_names
      @ List.map
          (fun l ->
            ( "layer." ^ l ^ ".ms",
              per_op
                (List.fold_left
                   (fun a p -> if layer_of_pass p = l then a +. get tr.pass_s p else a)
                   0.0 pass_names),
              "ms" ))
          layers
      @ Array.to_list
          (Array.map
             (fun ki ->
               let name = ki.k.Kernels.bench_name in
               "kernel." ^ name ^ ".compile_ms", per_op (get tr.kernel_s name), "ms")
             kins)
      @ [ "hw.verify_ms", per_op tr.verify_s, "ms";
          "compile.unattributed_ms", per_op (tr.op_s -. pass_total -. tr.verify_s), "ms";
          "retiming.moves_total", float_of_int tr.moves /. n, "count";
          "retiming.greedy_latch_bits_total", float_of_int tr.greedy_bits /. n, "bits";
          "trace.overhead_ratio", ops_per_s traced /. ops_per_s plain, "ratio" ]
    in
    { attempted = plain.ph_ops + traced.ph_ops;
      failed = plain.ph_failed + traced.ph_failed;
      correct = plain.ph_failed + traced.ph_failed = 0 && setup_ok && same_vhdl ();
      metrics = cold_layer }
  end

(* ------------------------------------------------------------------ *)
(* serve-mixed                                                         *)
(* ------------------------------------------------------------------ *)

(* Class shares: p50 lands inside the hit mode, p90 inside the cold mode.
   Hit round trips have a long tail (they share two cores with cold
   compiles); at 65% hits p50 fell on that tail's steep slope. *)
let hit_pct = 75
let cold_pct = 20

(* The server takes no lookup tables, so the warm keys are the gallery
   kernels without one, with their tuned options. The bit-loop kernels
   (inner loop fully unrolled: udiv, square_root) are left out: their
   VHDL is so large that a hit on them costs as much as a cold compile. *)
type key = { key_name : string; source : string; entry : string; opts : Driver.options }

let options_json (o : Driver.options) =
  let d = Driver.default_options in
  if o.Driver.stage_budget <> d.Driver.stage_budget || o.Driver.decomp <> d.Driver.decomp
  then die "a warm key sets an option the serve protocol cannot carry";
  Json.Obj
    [ "target_ns", Json.Num o.Driver.target_ns;
      "bus_elements", Json.int o.Driver.bus_elements;
      "unroll_inner_max", Json.int o.Driver.unroll_inner_max;
      "unroll_all_max", Json.int o.Driver.unroll_all_max;
      "unroll_outer_factor", Json.int o.Driver.unroll_outer_factor;
      "lut_convert_max_bits", Json.int o.Driver.lut_convert_max_bits;
      "fuse_loops", Json.Bool o.Driver.fuse_loops;
      "infer_widths", Json.Bool o.Driver.infer_widths;
      "optimize_vm", Json.Bool o.Driver.optimize_vm;
      "check_vhdl", Json.Bool o.Driver.check_vhdl ]

(* The request line for [key], with id [id]. *)
let request_line id (k : key) =
  Json.to_string
    (Json.Obj
       [ "id", Json.int id;
         "source", Json.Str k.source;
         "entry", Json.Str k.entry;
         "options", options_json k.opts;
         "return_vhdl", Json.Bool true ])

let health_line id = Printf.sprintf "{\"id\":%d,\"type\":\"health\"}" id

let warm_keys () =
  List.filter_map
    (fun ki ->
      if ki.k.Kernels.luts <> [] || ki.opts.Driver.unroll_inner_max > 0 then None
      else
        Some
          { key_name = ki.k.Kernels.bench_name; source = ki.k.Kernels.source;
            entry = ki.k.Kernels.entry; opts = ki.opts })
    (cold_kernels ())

(* A unique FIR-like kernel: 3-9 taps over 16-64 elements with seeded
   coefficients. [seen] keeps every variant of a run distinct. *)
let cold_key ~entry rng seen =
  let rec pick () =
    let taps = 3 + Random.State.int rng 7 in
    let n = 16 + Random.State.int rng 49 in
    let coeffs =
      List.init taps (fun j ->
          let c = 1 + Random.State.int rng 9 in
          if j > 0 && Random.State.bool rng then -c else c)
    in
    if Hashtbl.mem seen (taps, n, coeffs) then pick ()
    else begin
      Hashtbl.add seen (taps, n, coeffs) ();
      let terms =
        List.mapi
          (fun j c ->
            let a = if j = 0 then "A[i]" else Printf.sprintf "A[i+%d]" j in
            if j = 0 then Printf.sprintf "%d*%s" c a
            else if c < 0 then Printf.sprintf " - %d*%s" (-c) a
            else Printf.sprintf " + %d*%s" c a)
          coeffs
      in
      let source =
        Printf.sprintf
          "void %s(int16 A[%d], int C[%d]) {\n  int i;\n  for (i = 0; i < %d; i = i + 1) {\n    C[i] = %s;\n  }\n}\n"
          entry (n + taps - 1) n n (String.concat "" terms)
      in
      { key_name = entry; source; entry; opts = Driver.default_options }
    end
  in
  pick ()

let compile_key (k : key) = Driver.compile ~options:k.opts ~entry:k.entry k.source

(* One client connection: closed loop, at most one request in flight. *)
type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable op : int;  (* in-flight op index, -1 when idle *)
  mutable sent_s : float;
}

let chunk = Bytes.create 65536

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let send c line = write_all c.fd (line ^ "\n")

(* Read what is available; return the reply line once it is complete. *)
let read_some c : string option =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "server closed the connection";
  Buffer.add_subbytes c.buf chunk 0 n;
  let rec has_newline i = i < n && (Bytes.get chunk i = '\n' || has_newline (i + 1)) in
  if not (has_newline 0) then None
  else begin
    let s = Buffer.contents c.buf in
    Buffer.clear c.buf;
    Some (String.sub s 0 (String.index s '\n'))
  end

let rec read_line c = match read_some c with Some l -> l | None -> read_line c

let rpc c line =
  send c line;
  read_line c

(* A reply reduced to what the after-loop check needs, without keeping
   the VHDL: the fields before "vhdl", a digest of the "vhdl" object as
   sent, and elapsed_ms (the server prints it last). *)
type reply = { r_head : string; r_vhdl : Digest.t option; r_elapsed_ms : float }

let vhdl_marker = ",\"vhdl\":{"

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let compact line =
  let tail = Option.value (String.rindex_opt line ',') ~default:0 in
  let elapsed =
    let t = String.sub line tail (String.length line - tail) in
    try Scanf.sscanf t ",\"elapsed_ms\":%f}" Fun.id with _ -> nan
  in
  match find_sub line vhdl_marker with
  | Some p when p < tail ->
    let start = p + String.length vhdl_marker - 1 in
    { r_head = String.sub line 0 p ^ "}";
      r_vhdl = Some (Digest.substring line start (tail - start));
      r_elapsed_ms = elapsed }
  | _ -> { r_head = line; r_vhdl = None; r_elapsed_ms = elapsed }

(* Does a compile reply reproduce the in-process compile [id]? *)
let reply_matches (r : reply) (id : ident) =
  match Json.parse r.r_head with
  | Error _ -> false
  | Ok j ->
    let field k = Json.member k j in
    field "status" = Some (Json.Str "ok")
    && Option.bind (field "slices") Json.to_int_opt = Some id.id_slices
    && Option.bind (field "latch_bits") Json.to_int_opt = Some id.id_latch
    && Option.map Json.to_string (field "clock_mhz") = Some id.id_clock
    && r.r_vhdl = Some id.id_vhdl

let health_of line =
  match Json.parse line with
  | Ok j when Json.member "status" j = Some (Json.Str "ok") -> Json.member "health" j
  | _ -> None

type server = {
  pid : int;
  dir : string;
  conns : conn array;
  trace_file : string option;
}

let live_servers : int list ref = ref []

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> (try Sys.remove path with Sys_error _ -> ())

(* Wait for [pid] to exit, killing it after [timeout_s]. *)
let reap ~timeout_s pid =
  let deadline = now () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.01; go ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live_servers := List.filter (( <> ) pid) !live_servers

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_servers)

let server_seq = ref 0

(* Start `roccc serve` on a fresh socket and cache directory under
   _perfbench/ and open [jobs] connections to it. *)
let start_server ~roccc ~jobs ~trace =
  incr server_seq;
  (try Unix.mkdir "_perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Printf.sprintf "_perfbench/%d-%d" (Unix.getpid ()) !server_seq in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let sock = dir ^ "/sock" in
  let trace_file = if trace then Some (dir ^ "/trace.json") else None in
  let argv =
    [ roccc; "serve"; "--socket"; sock; "--cache"; "--cache-dir"; dir ^ "/cache";
      "--jobs"; string_of_int jobs ]
    @ (match trace_file with Some f -> [ "--trace"; f ] | None -> [])
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile (dir ^ "/server.log") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let pid = Unix.create_process roccc (Array.of_list argv) null null err in
  Unix.close null;
  Unix.close err;
  live_servers := pid :: !live_servers;
  let deadline = now () +. 30.0 in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if now () > deadline then die "roccc serve did not come up (see %s/server.log)" dir;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> die "roccc serve exited at start-up (see %s/server.log)" dir);
      Unix.sleepf 0.001;
      connect ()
  in
  let conns =
    Array.init jobs (fun _ ->
        { fd = connect (); buf = Buffer.create 65536; op = -1; sent_s = 0.0 })
  in
  { pid; dir; conns; trace_file }

(* Pass milliseconds per layer from a server trace. The Chrome trace
   holds one event per line; only pass spans are parsed. *)
let trace_layer_ms path =
  let tbl = Hashtbl.create 8 in
  let add ev =
    match Json.member "name" ev, Option.bind (Json.member "dur" ev) Json.to_float_opt with
    | Some (Json.Str name), Some dur_us -> add_to tbl (layer_of_pass name) (dur_us /. 1e3)
    | _ -> ()
  in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          (if find_sub line "\"cat\":\"pass\"" <> None then
             let line =
               if String.ends_with ~suffix:"," line then
                 String.sub line 0 (String.length line - 1)
               else line
             in
             match Json.parse line with Ok ev -> add ev | Error _ -> ());
          go ()
      in
      go ());
  tbl

(* Protocol shutdown, then reap; returns the per-layer pass times when
   traced. *)
let stop_server s =
  (try ignore (rpc s.conns.(0) "{\"type\":\"shutdown\"}") with _ -> ());
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) s.conns;
  reap ~timeout_s:60.0 s.pid;
  let layer_ms =
    Option.bind s.trace_file (fun f ->
        try Some (trace_layer_ms f) with Sys_error _ -> None)
  in
  rm_rf s.dir;
  layer_ms

type serve_ref = {
  warm : key array;
  warm_ids : ident array;
  designs : design list;
  cycles : int;  (* the warm designs simulated on their gallery inputs *)
}

(* In-process references for the warm keys (not part of set-up time). *)
let serve_references () =
  let warm = Array.of_list (warm_keys ()) in
  let kins = cold_kernels () in
  let compiled = Array.map compile_key warm in
  let cycles =
    Array.fold_left ( + ) 0
      (Array.mapi
         (fun i c ->
           let ki = List.find (fun ki -> ki.k.Kernels.bench_name = warm.(i).key_name) kins in
           (Driver.simulate ~scalars:ki.k.Kernels.scalars ~arrays:ki.arrays c).Engine.cycles)
         compiled)
  in
  { warm; warm_ids = Array.map ident_of compiled;
    designs = Array.to_list (Array.map design_of compiled); cycles }

(* Prime every warm key cold, then one untimed warm-up op of each class. *)
let serve_setup ~roccc ~jobs ~trace (rf : serve_ref) =
  let t0 = now () in
  let s = start_server ~roccc ~jobs ~trace in
  let c = s.conns.(0) in
  let ok = ref true in
  Array.iteri
    (fun i k ->
      ok := !ok && reply_matches (compact (rpc c (request_line i k))) rf.warm_ids.(i))
    rf.warm;
  let wk = cold_key ~entry:"firwarm" (Random.State.make [| 7 |]) (Hashtbl.create 1) in
  ok := !ok && reply_matches (compact (rpc c (request_line 0 wk))) (ident_of (compile_key wk));
  ok := !ok && reply_matches (compact (rpc c (request_line 0 rf.warm.(0)))) rf.warm_ids.(0);
  ok := !ok && health_of (rpc c (health_line 0)) <> None;
  now () -. t0, s, !ok

type serve_phase = {
  sv_phase : phase;
  sv_cls : int array;  (* 0 hit, 1 cold, 2 health *)
  sv_rtt_ms : float array;
  sv_replies : reply array;
  sv_health : Json.t option;  (* at the checkpoint *)
  sv_colds : key array;  (* cold keys in issue order *)
  sv_key : int array;  (* op -> index into the warm keys (hit) or sv_colds (cold) *)
}

(* The closed loop: every connection sends its next request only after
   its reply. The op sequence is drawn from [seed] in issue order, so the
   first [checkpoint] ops are the same in every run with that seed. The
   loop drains at the checkpoint and whenever a set-up of [between] falls
   due, with its clock paused. *)
let serve_loop ?(between = no_spread) ~seed ~seconds ~min_ops ~checkpoint (rf : serve_ref)
    (s : server) =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let seen = Hashtbl.create 1024 in
  let cls = ref [||] and rtt = ref [||] and replies = ref [||] and key = ref [||] in
  let grow a v i =
    if i >= Array.length !a then begin
      let b = Array.make (max 1024 (2 * Array.length !a)) v in
      Array.blit !a 0 b 0 (Array.length !a);
      a := b
    end
  in
  let colds = ref [] and ncold = ref 0 in
  let empty = { r_head = ""; r_vhdl = None; r_elapsed_ms = nan } in
  let issued = ref 0 and inflight = ref 0 in
  let op_ms = sample () in
  let paused = ref 0.0 in
  let rss = ref nan and health = ref None in
  let t0 = now () in
  let window () = now () -. t0 -. !paused in
  let issue c =
    let i = !issued in
    incr issued;
    grow cls 0 i; grow rtt 0.0 i; grow replies empty i; grow key 0 i;
    let u = Random.State.int rng 100 in
    let line =
      if u < hit_pct then begin
        !cls.(i) <- 0;
        let w = Random.State.int rng (Array.length rf.warm) in
        !key.(i) <- w;
        request_line i rf.warm.(w)
      end
      else if u < hit_pct + cold_pct then begin
        !cls.(i) <- 1;
        let k = cold_key ~entry:"firv" rng seen in
        colds := k :: !colds;
        !key.(i) <- !ncold;
        incr ncold;
        request_line i k
      end
      else begin
        !cls.(i) <- 2;
        health_line i
      end
    in
    c.op <- i;
    incr inflight;
    c.sent_s <- now ();
    send c line
  in
  let stopping () =
    let w = window () in
    (w >= seconds && !issued >= min_ops) || w >= hard_cap_s
  in
  let checkpointed = ref false in
  let at_checkpoint () = !issued = checkpoint && not !checkpointed in
  let may_issue () =
    not (at_checkpoint () || stopping () || due between (window ()))
  in
  Array.iter (fun c -> if may_issue () then issue c) s.conns;
  while !inflight > 0 do
    let fds = Array.fold_left (fun acc c -> if c.op >= 0 then c.fd :: acc else acc) [] s.conns in
    let ready, _, _ =
      try Unix.select fds [] [] 5.0 with Unix.Unix_error (Unix.EINTR, _, _) -> [], [], []
    in
    List.iter
      (fun fd ->
        let c = Option.get (Array.find_opt (fun c -> c.fd = fd) s.conns) in
        match read_some c with
        | None -> ()
        | Some line ->
          let ms = (now () -. c.sent_s) *. 1e3 in
          let i = c.op in
          c.op <- -1;
          decr inflight;
          !rtt.(i) <- ms;
          push op_ms ms;
          !replies.(i) <- compact line;
          if may_issue () then issue c)
      ready;
    (* drained: at the checkpoint read the server's VmHWM and health; run
       a due set-up; then resume *)
    if !inflight = 0 && not (stopping ()) then begin
      let p0 = now () in
      if at_checkpoint () then begin
        checkpointed := true;
        rss := vm_hwm_mb ~pid:s.pid ();
        health := health_of (rpc s.conns.(0) (health_line (-1)))
      end;
      if due between (window ()) then ignore (run_next between);
      paused := !paused +. (now () -. p0);
      Array.iter (fun c -> if may_issue () then issue c) s.conns
    end
  done;
  let win = window () in
  let n = !issued in
  if not !checkpointed then begin
    rss := vm_hwm_mb ~pid:s.pid ();
    health := health_of (rpc s.conns.(0) (health_line (-1)))
  end;
  finish between;
  { sv_phase =
      { ph_ops = n; ph_failed = 0; ph_window_s = win; ph_op_ms = op_ms; ph_rss_mb = !rss };
    sv_cls = Array.sub !cls 0 n;
    sv_rtt_ms = Array.sub !rtt 0 n;
    sv_replies = Array.sub !replies 0 n;
    sv_health = !health;
    sv_colds = Array.of_list (List.rev !colds);
    sv_key = Array.sub !key 0 n }

(* The after-loop check: every compile reply against an in-process
   compile of its key, every health reply parsed. Returns failed ops. The
   ops are split over [jobs] domains, as the server splits its compiles,
   so the check's time does not grow with the host's core count. *)
let serve_check ~jobs (rf : serve_ref) (sp : serve_phase) =
  let ok i =
    let r = sp.sv_replies.(i) in
    match sp.sv_cls.(i) with
    | 0 -> reply_matches r rf.warm_ids.(sp.sv_key.(i))
    | 1 -> reply_matches r (ident_of (compile_key sp.sv_colds.(sp.sv_key.(i))))
    | _ -> health_of r.r_head <> None
  in
  let n = Array.length sp.sv_cls in
  (* ops j, j + jobs, j + 2 jobs, ... *)
  let failed_of j =
    let f = ref 0 in
    let i = ref j in
    while !i < n do
      if not (ok !i) then incr f;
      i := !i + jobs
    done;
    !f
  in
  let others = List.init (jobs - 1) (fun j -> Domain.spawn (fun () -> failed_of (j + 1))) in
  List.fold_left (fun a d -> a + Domain.join d) (failed_of 0) others

let serve_mixed ~roccc ~jobs ~seed ~seconds ~trace ~corrupt : outcome =
  let rf = serve_references () in
  if corrupt then rf.warm_ids.(0) <- corrupt_ident rf.warm_ids.(0);
  let checkpoint = checkpoint_ops "serve-mixed" in
  let run ?between ~seconds ~min_ops ~trace () =
    let setup_s, s, setup_ok = serve_setup ~roccc ~jobs ~trace rf in
    let sp = serve_loop ?between ~seed ~seconds ~min_ops ~checkpoint rf s in
    let layer_ms = stop_server s in
    let failed = serve_check ~jobs rf sp in
    setup_s, setup_ok, { sp with sv_phase = { sp.sv_phase with ph_failed = failed } }, layer_ms
  in
  if not trace then begin
    (* the set-ups spread over the loop each start, prime and stop a
       server of their own while the measured one is drained *)
    let log = { times = []; all_ok = true } in
    let again () =
      let t, s, ok = serve_setup ~roccc ~jobs ~trace:false rf in
      ignore (stop_server s);
      record log t ok
    in
    let between = spread ~seconds (setups - 1) again in
    let t, ok, sp, _ = run ~between ~seconds ~min_ops ~trace:false () in
    record log t ok;
    let ph = sp.sv_phase in
    { attempted = ph.ph_ops; failed = ph.ph_failed;
      correct = ph.ph_failed = 0 && log.all_ok;
      metrics =
        ("setup_s", setup_s log, "s")
        :: timing_metrics ph
        @ quality_metrics ~cycles:rf.cycles rf.designs }
  end
  else begin
    let half = seconds /. 2.0 in
    let _, ok1, plain, _ = run ~seconds:half ~min_ops:1 ~trace:false () in
    let _, ok2, traced, trace_layer_ms = run ~seconds:half ~min_ops:1 ~trace:true () in
    let by_class c f =
      let s = sample () in
      Array.iteri (fun i k -> if k = c then push s (f i)) plain.sv_cls;
      s
    in
    let rtt c = by_class c (fun i -> plain.sv_rtt_ms.(i)) in
    let compiles f =
      let s = sample () in
      Array.iteri
        (fun i k ->
          let e = plain.sv_replies.(i).r_elapsed_ms in
          if k < 2 && Float.is_finite e then push s (f i e))
        plain.sv_cls;
      s
    in
    let h path =
      let rec go j = function
        | [] -> j
        | k :: rest -> go (Option.bind j (Json.member k)) rest
      in
      match Option.bind (go plain.sv_health path) Json.to_float_opt with
      | Some v -> v
      | None -> nan
    in
    let hits = h [ "cache"; "hits" ] and misses = h [ "cache"; "misses" ] in
    let layer_ms =
      match trace_layer_ms with
      | Some t -> t
      | None -> warn "server trace missing"; Hashtbl.create 1
    in
    let tops = float_of_int traced.sv_phase.ph_ops in
    let failed = plain.sv_phase.ph_failed + traced.sv_phase.ph_failed in
    { attempted = plain.sv_phase.ph_ops + traced.sv_phase.ph_ops;
      failed;
      correct = failed = 0 && ok1 && ok2 && plain.sv_health <> None;
      metrics =
        [ "serve.hit.rtt_ms.p50", pct (rtt 0) 0.5, "ms";
          "serve.cold.rtt_ms.p50", pct (rtt 1) 0.5, "ms";
          "serve.cold.rtt_ms.p90", pct (rtt 1) 0.9, "ms";
          "serve.health.rtt_ms.p50", pct (rtt 2) 0.5, "ms";
          "serve.server_ms.p50", pct (compiles (fun _ e -> e)) 0.5, "ms";
          "serve.wait_ms.p50", pct (compiles (fun i e -> plain.sv_rtt_ms.(i) -. e)) 0.5, "ms";
          "cache.hits", hits, "count";
          "cache.misses", misses, "count";
          "cache.disk_hits", h [ "cache"; "disk_hits" ], "count";
          "cache.hit_ratio", hits /. (hits +. misses), "ratio";
          "cache.flights", h [ "cache"; "flights" ], "count";
          "cache.coalesced", h [ "cache"; "coalesced" ], "count";
          "cache.contended", h [ "cache"; "contended" ], "count";
          "server.shed", h [ "requests"; "shed" ], "count";
          "workers.effective", h [ "workers"; "effective" ], "count";
          "trace.overhead_ratio", ops_per_s traced.sv_phase /. ops_per_s plain.sv_phase, "ratio" ]
        @ List.map
            (fun l ->
              ( "serve.layer." ^ l ^ ".ms",
                Option.value (Hashtbl.find_opt layer_ms l) ~default:0.0 /. tops,
                "ms" ))
            layers }
  end

(* ------------------------------------------------------------------ *)
(* cosim-long                                                          *)
(* ------------------------------------------------------------------ *)

let stream_elements = 2048
let vectors_per_run = 8

(* The gallery fir -> smooth network (examples/stream.c) generated at a
   [n]-element stream. *)
let network_source n =
  Printf.sprintf
    "void fir(int A[%d], int C[%d]) {\n\
    \  int i;\n\
    \  for (i = 0; i < %d; i = i + 1) {\n\
    \    C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];\n\
    \  }\n\
     }\n\n\
     void smooth(int D[%d], int E[%d]) {\n\
    \  int i;\n\
    \  for (i = 0; i < %d; i = i + 1) {\n\
    \    E[i] = (D[i] + 2*D[i+1] + D[i+2]) >> 2;\n\
    \  }\n\
     }\n\n\
     pipeline firsmooth = fir -> smooth;\n"
    (n + 4) n n n (n - 2) (n - 2)

let outputs_match (r : Net.sim_result) (reference : (string * int64 array) list) =
  r.Net.nr_output_arrays <> []
  && List.for_all
       (fun (name, hw) ->
         match List.assoc_opt name reference with
         | Some sw -> hw = sw
         | None -> false)
       r.Net.nr_output_arrays

let cosim_long ~seed ~seconds ~trace ~corrupt : outcome =
  let rng = Random.State.make [| seed; 0xc051 |] in
  let vectors =
    Array.init vectors_per_run (fun _ ->
        [ ( "A",
            Array.init (stream_elements + 4) (fun _ ->
                Int64.of_int (Random.State.int rng 2001 - 1000)) ) ])
  in
  (* the untimed warm-up op fixes the network's cycle count *)
  let setup () =
    let net = Net.plan ~jobs:1 ~name:"firsmooth" (network_source stream_elements) in
    let refs = Array.map (fun arrays -> (Net.sequential ~arrays net).Interp.arrays) vectors in
    let warm = Net.simulate ~arrays:vectors.(0) net in
    net, refs, warm, outputs_match warm refs.(0)
  in
  let designs ((net : Net.t), _, (w : Net.sim_result), _) =
    ( List.map (fun (sg : Net.stage) -> design_of sg.Net.sg_compiled) net.Net.net_stages,
      w.Net.nr_cycles )
  in
  let ((net, refs, warm, setup_ok) as first_setup), log, again =
    timed_setups setup designs
  in
  if corrupt then begin
    let out = fst (List.hd warm.Net.nr_output_arrays) in
    refs.(0) <-
      List.map
        (fun (name, a) ->
          if name <> out then name, a
          else name, Array.mapi (fun i v -> if i = 0 then Int64.succ v else v) a)
        refs.(0)
  end;
  let pick = Random.State.make [| seed; 0x0b5 |] in
  let last = ref warm in
  let sim_s = ref 0.0 and check_s = ref 0.0 and cycles = ref 0 in
  let op ~timed _ =
    let v = Random.State.int pick vectors_per_run in
    let t0 = now () in
    let r = Net.simulate ~arrays:vectors.(v) net in
    let t1 = now () in
    let ok = outputs_match r refs.(v) in
    if timed then begin
      sim_s := !sim_s +. (t1 -. t0);
      check_s := !check_s +. (now () -. t1);
      cycles := !cycles + r.Net.nr_cycles;
      last := r
    end;
    ok
  in
  let rss () = vm_hwm_mb () in
  let checkpoint = checkpoint_ops "cosim-long" in
  let stage_designs, net_cycles = designs first_setup in
  if not trace then begin
    let between = spread ~seconds (setups - 1) again in
    let ph = run_phase ~between ~seconds ~min_ops ~checkpoint ~rss (op ~timed:false) in
    { attempted = ph.ph_ops; failed = ph.ph_failed;
      correct = ph.ph_failed = 0 && setup_ok && log.all_ok;
      metrics =
        ("setup_s", setup_s log, "s")
        :: timing_metrics ph
        @ quality_metrics ~cycles:net_cycles stage_designs }
  end
  else begin
    let half = seconds /. 2.0 in
    let plain = run_phase ~seconds:half ~min_ops:1 ~checkpoint ~rss (op ~timed:false) in
    let traced = run_phase ~seconds:half ~min_ops:1 ~checkpoint ~rss (op ~timed:true) in
    let n = float_of_int traced.ph_ops in
    let producer = List.hd net.Net.net_stages in
    let single =
      let s = sample () in
      for _ = 1 to 5 do
        let t0 = now () in
        ignore (Driver.simulate ~arrays:vectors.(0) producer.Net.sg_compiled);
        push s ((now () -. t0) *. 1e3)
      done;
      pct s 0.5
    in
    let r = !last in
    let engine =
      List.concat_map
        (fun (name, (er : Engine.result)) ->
          [ "engine." ^ name ^ ".cycles", float_of_int er.Engine.cycles, "cycles";
            "engine." ^ name ^ ".launches", float_of_int er.Engine.launches, "count" ])
        r.Net.nr_stage_results
    in
    let fifo =
      match r.Net.nr_channels with
      | ch :: _ ->
        [ "fifo.depth", float_of_int ch.Net.cs_depth, "elements";
          "fifo.high_water", float_of_int ch.Net.cs_high_water, "elements";
          "fifo.pushed", float_of_int ch.Net.cs_pushed, "elements";
          "fifo.full_stalls", float_of_int ch.Net.cs_full_stalls, "cycles";
          "fifo.empty_stalls", float_of_int ch.Net.cs_empty_stalls, "cycles" ]
      | [] -> []
    in
    let failed = plain.ph_failed + traced.ph_failed in
    { attempted = plain.ph_ops + traced.ph_ops; failed;
      correct = failed = 0 && setup_ok;
      metrics =
        [ "net.simulate_ms", !sim_s *. 1e3 /. n, "ms";
          "net.check_ms", !check_s *. 1e3 /. n, "ms";
          "net.kcycles_per_s", float_of_int !cycles /. !sim_s /. 1e3, "kcycles/s";
          "hw.single_engine_ms", single, "ms";
          "trace.overhead_ratio", ops_per_s traced /. ops_per_s plain, "ratio" ]
        @ engine @ fifo }
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let roccc = ref "" and jobs = ref 0 and corrupt = ref false in
  Arg.parse
    [ "--workload", Arg.Set_string workload, "compile-cold | serve-mixed | cosim-long";
      "--seed", Arg.Set_int seed, "input seed";
      "--seconds", Arg.Set_float seconds, "timed seconds";
      "--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics";
      "--roccc", Arg.Set_string roccc, "path of the roccc executable (serve-mixed)";
      "--jobs", Arg.Set_int jobs, "server workers and client connections (serve-mixed)";
      "--corrupt-reference", Arg.Set corrupt, "corrupt one reference (self-test)" ]
    (fun a -> die "unexpected argument %s" a)
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then
    die "need --seed N>=0 --seconds S>0 --trace 0|1";
  let trace = !trace = 1 and seed = !seed and seconds = !seconds and corrupt = !corrupt in
  let o =
    match !workload with
    | "compile-cold" -> compile_cold ~seed ~seconds ~trace ~corrupt
    | "serve-mixed" ->
      if !roccc = "" || !jobs < 1 then die "serve-mixed needs --roccc PATH --jobs N";
      serve_mixed ~roccc:!roccc ~jobs:!jobs ~seed ~seconds ~trace ~corrupt
    | "cosim-long" -> cosim_long ~seed ~seconds ~trace ~corrupt
    | w -> die "unknown workload %S" w
  in
  print_outcome o
