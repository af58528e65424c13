(* Benchmark harness: regenerates every table and figure of the paper
   (DATE 2005, "Optimized Generation of Data-path from C Codes for FPGAs"),
   runs the ablation studies listed in DESIGN.md, and finishes with
   Bechamel micro-benchmarks of the compiler itself.

   Sections:
     Table 1   - IP vs ROCCC clock/area for the nine kernels
     Figure 1  - the executed pass pipeline
     Figure 2  - execution-model cycle trace (FIR)
     Figure 3  - FIR scalar replacement stages
     Figure 4  - accumulator feedback stages
     Figure 5/6- if_else data path with soft/mux/pipe nodes
     Figure 7  - accumulator data path with the feedback latch
     §5 claims - DCT throughput, smart-buffer reuse
     ref [13]  - compile-time area estimation speed
     Ablations - stage budget, bit widths, mul_acc rewrite, DCT unrolling
     Bechamel  - compile/estimate/simulate timings *)

module Driver = Roccc_core.Driver
module Kernels = Roccc_core.Kernels
module Pass = Roccc_core.Pass
module Cfg = Roccc_analysis.Cfg
module Dataflow = Roccc_analysis.Dataflow
module Proc = Roccc_vm.Proc
module Baselines = Roccc_ip.Baselines
module Engine = Roccc_hw.Engine
module Graph = Roccc_datapath.Graph
module Pipeline = Roccc_datapath.Pipeline
module Area = Roccc_fpga.Area
module Kernel = Roccc_hir.Kernel
module Net = Roccc_net.Net

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let hr () = print_endline (String.make 118 '-')

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

type t1_row = {
  t1_name : string;
  ip_paper : Baselines.perf;
  roccc_paper : Baselines.perf;
  ip_model : Baselines.perf;
  roccc_ours : Baselines.perf;
  verified : bool;
}

(* Operator-style rows compare against bare IP operators (no memory-side
   wrapper); the windowed kernels include their buffers and controllers,
   like the paper's FIR/DCT/wavelet engines. *)
let operator_rows =
  [ "bit_correlator"; "mul_acc"; "udiv"; "square_root"; "cos";
    "arbitrary_lut" ]

let compile_row name : Baselines.perf * bool =
  match name with
  | "wavelet" ->
    (* the engine is the row pass plus the column pass *)
    let c1, _, d1 = Kernels.run Kernels.wavelet in
    let c2, _, d2 = Kernels.run Kernels.wavelet_cols in
    let slices = c1.Driver.area.Area.slices + c2.Driver.area.Area.slices in
    let clock =
      Float.min c1.Driver.area.Area.clock_mhz c2.Driver.area.Area.clock_mhz
    in
    { Baselines.slices; clock_mhz = clock }, d1 = [] && d2 = []
  | _ ->
    let b = Option.get (Kernels.find name) in
    let c, _, diffs = Kernels.run b in
    let slices =
      if List.mem name operator_rows then c.Driver.area.Area.operator_slices
      else c.Driver.area.Area.slices
    in
    ( { Baselines.slices; clock_mhz = c.Driver.area.Area.clock_mhz },
      diffs = [] )

let table1_rows () : t1_row list =
  List.map
    (fun (r : Baselines.row) ->
      let ours, verified = compile_row r.Baselines.name in
      { t1_name = r.Baselines.name;
        ip_paper = r.Baselines.paper_ip;
        roccc_paper = r.Baselines.paper_roccc;
        ip_model =
          Option.value
            (Baselines.model r.Baselines.name)
            ~default:{ Baselines.slices = 0; clock_mhz = 0.0 };
        roccc_ours = ours;
        verified })
    Baselines.paper_table1

let print_table1 rows =
  section "Table 1 - hardware performance: Xilinx IP vs ROCCC-generated";
  Printf.printf "%-15s | %-17s | %-17s | %-17s | %-17s | %-7s %-8s | %-7s %-8s | %s\n"
    "" "paper IP" "paper ROCCC" "model IP" "our ROCCC" "%Clk(p)" "%Area(p)"
    "%Clk" "%Area" "hw=sw";
  Printf.printf "%-15s | %8s %8s | %8s %8s | %8s %8s | %8s %8s |\n" "example"
    "MHz" "slices" "MHz" "slices" "MHz" "slices" "MHz" "slices";
  hr ();
  List.iter
    (fun r ->
      let pclk =
        r.roccc_paper.Baselines.clock_mhz /. r.ip_paper.Baselines.clock_mhz
      in
      let parea =
        float_of_int r.roccc_paper.Baselines.slices
        /. float_of_int r.ip_paper.Baselines.slices
      in
      let oclk =
        r.roccc_ours.Baselines.clock_mhz /. r.ip_model.Baselines.clock_mhz
      in
      let oarea =
        float_of_int r.roccc_ours.Baselines.slices
        /. float_of_int (max 1 r.ip_model.Baselines.slices)
      in
      Printf.printf
        "%-15s | %8.0f %8d | %8.0f %8d | %8.0f %8d | %8.0f %8d | %7.3f \
         %8.2f | %7.3f %8.2f | %s\n"
        r.t1_name r.ip_paper.Baselines.clock_mhz r.ip_paper.Baselines.slices
        r.roccc_paper.Baselines.clock_mhz r.roccc_paper.Baselines.slices
        r.ip_model.Baselines.clock_mhz r.ip_model.Baselines.slices
        r.roccc_ours.Baselines.clock_mhz r.roccc_ours.Baselines.slices pclk
        parea oclk oarea
        (if r.verified then "yes" else "NO"))
    rows;
  hr ();
  let geo f rows =
    let logs = List.map (fun r -> Float.log (f r)) rows in
    Float.exp
      (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))
  in
  (* aggregate over the rows where the compiler does real work (the LUT rows
     are by construction identical on both sides, as in the paper) *)
  let active =
    List.filter
      (fun r -> r.t1_name <> "cos" && r.t1_name <> "arbitrary_lut")
      rows
  in
  Printf.printf
    "geomean (non-LUT rows): paper area ratio %.2fx, ours %.2fx; paper \
     clock ratio %.2fx, ours %.2fx\n"
    (geo
       (fun r ->
         float_of_int r.roccc_paper.Baselines.slices
         /. float_of_int r.ip_paper.Baselines.slices)
       active)
    (geo
       (fun r ->
         float_of_int r.roccc_ours.Baselines.slices
         /. float_of_int (max 1 r.ip_model.Baselines.slices))
       active)
    (geo
       (fun r ->
         r.roccc_paper.Baselines.clock_mhz /. r.ip_paper.Baselines.clock_mhz)
       active)
    (geo
       (fun r ->
         r.roccc_ours.Baselines.clock_mhz /. r.ip_model.Baselines.clock_mhz)
       active);
  print_endline
    "paper's conclusion: ROCCC-generated circuits take ~2-3x the area of \
     hand IP at comparable clock rates."

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let paper_fir_source = Kernels.paper_fir_source

let paper_acc_source = Kernels.paper_acc_source

let paper_if_else_source = Kernels.paper_if_else_source

let figure1 () =
  section "Figure 1 - ROCCC system overview (executed pass pipeline)";
  let c = Driver.compile ~entry:"fir" paper_fir_source in
  print_endline (Driver.pass_pipeline_figure c)

let figure1_profiling () =
  section "Figure 1 (left box) - code profiling identifies the kernels";
  let app =
    "void app(int A[68], int B[64], int* count) {\n\
    \  int i;\n\
    \  for (i = 0; i < 64; i++) {\n\
    \    B[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];\n\
    \  }\n\
    \  int n;\n\
    \  n = 0;\n\
    \  for (i = 0; i < 64; i++) {\n\
    \    if (B[i] > 100) { n = n + 1; }\n\
    \  }\n\
    \  *count = n;\n\
     }\n"
  in
  let p =
    Roccc_core.Profile.analyze ~entry:"app"
      ~arrays:[ "A", Array.init 68 (fun i -> Int64.of_int (i - 30)) ]
      app
  in
  print_string (Roccc_core.Profile.report p)

let figure2 () =
  section "Figure 2 - the execution model (FIR, cycle-accurate)";
  let c = Driver.compile ~entry:"fir" paper_fir_source in
  let arrays = [ "A", Array.init 21 (fun i -> Int64.of_int i) ] in
  let r = Driver.simulate ~arrays c in
  print_endline
    "off-chip MEM -> BRAM -> smart buffer -> pipelined data path -> BRAM -> \
     off-chip MEM";
  Printf.printf
    "cycles %d | launches %d | latency %d | BRAM reads %d writes %d\n"
    r.Engine.cycles r.Engine.launches r.Engine.pipeline_latency
    r.Engine.memory_reads r.Engine.memory_writes;
  Printf.printf "controller: %s\n"
    (String.concat " -> "
       (List.map
          (fun (cyc, s) -> Printf.sprintf "%s@%d" s cyc)
          r.Engine.controller_trace))

let figure3 () =
  section "Figure 3 - a 5-tap FIR in C (scalar replacement stages)";
  let c = Driver.compile ~entry:"fir" paper_fir_source in
  let k = c.Driver.kernel in
  print_endline "(a) original C code:";
  print_endline (Roccc_cfront.Pretty.func_to_string k.Kernel.original);
  print_endline "\n(b) after scalar replacement:";
  print_endline (Roccc_cfront.Pretty.func_to_string k.Kernel.transformed);
  print_endline "\n(c) the C code fed into the data path generator:";
  print_endline (Roccc_cfront.Pretty.func_to_string k.Kernel.dp)

let figure4 () =
  section "Figure 4 - an accumulator in C (feedback detection stages)";
  let c = Driver.compile ~entry:"acc" paper_acc_source in
  let k = c.Driver.kernel in
  print_endline "(a) original C code:";
  print_endline (Roccc_cfront.Pretty.func_to_string k.Kernel.original);
  print_endline "\n(b) after scalar replacement:";
  print_endline (Roccc_cfront.Pretty.func_to_string k.Kernel.transformed);
  print_endline
    "\n(c) after feedback detection (ROCCC_load_prev / ROCCC_store2next):";
  print_endline (Roccc_cfront.Pretty.func_to_string k.Kernel.dp)

let figure56 () =
  section "Figures 5 & 6 - an alternative branch in C and its data path";
  print_endline "(Figure 5) the C code:";
  print_endline paper_if_else_source;
  let c = Driver.compile ~entry:"if_else" paper_if_else_source in
  print_endline
    "(Figure 6) the data path: soft nodes from CFG nodes; hard mux node \
     between the branches and their successor; hard pipe node carrying live \
     variables:";
  print_endline (Graph.to_string c.Driver.dp)

let figure7 () =
  section "Figure 7 - the accumulator data path (SNX latch feeds LPR)";
  let c = Driver.compile ~entry:"acc" paper_acc_source in
  print_endline (Graph.to_string c.Driver.dp);
  print_endline (Pipeline.describe c.Driver.pipeline)

(* ------------------------------------------------------------------ *)
(* §5 claims                                                           *)
(* ------------------------------------------------------------------ *)

let throughput_section () =
  section "Throughput - DCT (paper: ROCCC 8 outputs/cycle vs IP 1/cycle)";
  let c, r, _ = Kernels.run Kernels.dct in
  Printf.printf
    "our DCT: %d outputs per launch, one launch per cycle in steady state\n"
    (List.length c.Driver.kernel.Kernel.outputs);
  Printf.printf "simulated: %d outputs in %d cycles (latency %d)\n"
    r.Engine.memory_writes r.Engine.cycles r.Engine.pipeline_latency;
  let ours, _ = compile_row "dct" in
  Printf.printf
    "IP comparator: 1 output/cycle => ROCCC throughput advantage %dx at \
     %.0f%% of the IP clock (paper: 73.5%%)\n"
    (List.length c.Driver.kernel.Kernel.outputs)
    (100.0 *. ours.Baselines.clock_mhz
    /. (Option.get (Baselines.model "dct")).Baselines.clock_mhz)

let smart_buffer_section () =
  section "Smart buffer - input data reuse (each datum fetched once)";
  List.iter
    (fun (name, b) ->
      let _c, r, _ = Kernels.run b in
      Printf.printf
        "%-14s: %5d memory reads, window demand %5d elements -> reuse %.2fx\n"
        name r.Engine.memory_reads
        (int_of_float
           (r.Engine.reuse_ratio *. float_of_int r.Engine.memory_reads))
        r.Engine.reuse_ratio)
    [ "fir", Kernels.fir; "wavelet_rows", Kernels.wavelet;
      "bit_correlator", Kernels.bit_correlator ]

let power_section () =
  section "Power estimation (Figure 1's third estimate)";
  Printf.printf "%-15s %8s %10s %10s %10s\n" "kernel" "slices" "dyn mW"
    "static mW" "total mW";
  List.iter
    (fun name ->
      match Kernels.find name with
      | None -> ()
      | Some b ->
        let c = Kernels.compile b in
        let pw = Area.power c.Driver.area in
        Printf.printf "%-15s %8d %10.1f %10.1f %10.1f\n" name
          c.Driver.area.Area.slices pw.Area.dynamic_mw pw.Area.static_mw
          pw.Area.total_mw)
    [ "bit_correlator"; "fir"; "dct"; "square_root"; "wavelet" ];
  print_endline
    "(first-order model: dynamic ~ slices x clock x toggle; the paper's \
     Figure 1 lists power as a compile-time estimate but reports none)"

let area_estimation_section () =
  section "Compile-time area estimation (paper ref [13]: <1 ms, ~5%)";
  List.iter
    (fun name ->
      match Kernels.find name with
      | None -> ()
      | Some b ->
        let c = Kernels.compile b in
        let t0 = Unix.gettimeofday () in
        let iterations = 100 in
        let result = ref 0 in
        for _ = 1 to iterations do
          result := Area.quick_estimate c.Driver.dp
        done;
        let t1 = Unix.gettimeofday () in
        let us = (t1 -. t0) /. float_of_int iterations *. 1e6 in
        Printf.printf
          "%-14s: quick estimate %5d slices vs full model %5d (%.0f us per \
           estimate)\n"
          name !result c.Driver.area.Area.slices us)
    [ "bit_correlator"; "mul_acc"; "fir"; "dct"; "square_root" ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_stage_budget () =
  section "Ablation - pipeline stage budget vs clock and registers (FIR)";
  Printf.printf "%10s %8s %10s %12s\n" "target ns" "stages" "clock MHz"
    "latch bits";
  List.iter
    (fun target_ns ->
      let c =
        Driver.compile
          ~options:{ Driver.default_options with Driver.target_ns }
          ~entry:"fir" paper_fir_source
      in
      Printf.printf "%10.1f %8d %10.1f %12d\n" target_ns
        (Pipeline.latency c.Driver.pipeline)
        c.Driver.pipeline.Pipeline.clock_mhz
        c.Driver.pipeline.Pipeline.latch_bits)
    [ 2.0; 3.0; 5.0; 8.0; 12.0; 50.0 ]

let ablation_bit_widths () =
  section "Ablation - bit-width inference on/off";
  Printf.printf "%-15s %18s %18s %8s\n" "kernel" "inferred (slices)"
    "declared (slices)" "saving";
  List.iter
    (fun name ->
      match Kernels.find name with
      | None -> ()
      | Some b ->
        let on = Kernels.compile b in
        let off =
          Driver.compile
            ~options:
              { (b.Kernels.tune Driver.default_options) with
                Driver.infer_widths = false }
            ~luts:b.Kernels.luts ~entry:b.Kernels.entry b.Kernels.source
        in
        let s_on = on.Driver.area.Area.slices in
        let s_off = off.Driver.area.Area.slices in
        Printf.printf "%-15s %18d %18d %7.0f%%\n" name s_on s_off
          (100.0 *. (1.0 -. (float_of_int s_on /. float_of_int s_off))))
    [ "bit_correlator"; "mul_acc"; "fir"; "dct"; "udiv" ]

let ablation_mul_acc_rewrite () =
  section "Ablation - mul_acc: if/else vs multiply-by-nd (paper §5)";
  (* the paper: rewriting the nd guard as a multiplication used one more
     multiplier but beat the if/else version in area and clock *)
  let if_else_version = Kernels.mul_acc in
  let mult_version =
    "int acc = 0;\n\
     void mul_acc(int12 A[64], int12 B[64], uint1 ND[64], int* out) {\n\
    \  int i;\n\
    \  for (i = 0; i < 64; i++) {\n\
    \    acc = acc + ND[i] * (A[i] * B[i]);\n\
    \  }\n\
    \  *out = acc;\n\
     }\n"
  in
  let c1 = Kernels.compile if_else_version in
  let c2 = Driver.compile ~entry:"mul_acc" mult_version in
  Printf.printf "if/else version    : %4d slices @ %6.1f MHz\n"
    c1.Driver.area.Area.operator_slices c1.Driver.area.Area.clock_mhz;
  Printf.printf "multiply-nd version: %4d slices @ %6.1f MHz\n"
    c2.Driver.area.Area.operator_slices c2.Driver.area.Area.clock_mhz;
  (* equivalence of the two algorithms *)
  let arrays = if_else_version.Kernels.arrays () in
  let r1 = Driver.simulate ~arrays c1 in
  let r2 = Driver.simulate ~arrays c2 in
  Printf.printf "same result: %b\n"
    (r1.Engine.scalar_outputs = r2.Engine.scalar_outputs)

let ablation_dct_unroll () =
  section "Ablation - DCT: fully unrolled block vs streamed row";
  let block = Kernels.compile Kernels.dct in
  (* streamed comparison: one matrix row applied per launch over a sliding
     window — 1 output per cycle, the IP-style schedule *)
  let row = Kernels.dct8_coeff.(1) in
  let streamed_src =
    let terms =
      Array.to_list row
      |> List.mapi (fun n c ->
             if c >= 0 then Printf.sprintf "+ %d*X[i+%d]" c n
             else Printf.sprintf "- %d*X[i+%d]" (-c) n)
      |> String.concat " "
    in
    Printf.sprintf
      "void dct_row(int8 X[15], int19 Y[8]) {\n\
      \  int i;\n\
      \  for (i = 0; i < 8; i++) {\n\
      \    Y[i] = %s;\n\
      \  }\n\
       }\n"
      (String.sub terms 2 (String.length terms - 2))
  in
  let streamed = Driver.compile ~entry:"dct_row" streamed_src in
  Printf.printf
    "block (paper's):   %4d slices, %d outputs/cycle, clock %6.1f MHz\n"
    block.Driver.area.Area.slices
    (List.length block.Driver.kernel.Kernel.outputs)
    block.Driver.area.Area.clock_mhz;
  Printf.printf
    "streamed row:      %4d slices, 1 output/cycle,  clock %6.1f MHz\n"
    streamed.Driver.area.Area.slices streamed.Driver.area.Area.clock_mhz;
  print_endline
    "=> unrolling trades ~8x area for 8x throughput at a similar clock."

let ablation_partial_unroll () =
  section "Ablation - partial unrolling of the FIR loop (area vs throughput)";
  let src =
    "void fir(int8 A[36], int16 C[32]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 32; i++) {\n\
    \    C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];\n\
    \  }\n\
     }\n"
  in
  Printf.printf "%8s %8s %14s %10s %8s\n" "factor" "slices" "outputs/cycle"
    "clock MHz" "cycles";
  let arrays = [ "A", Array.init 36 (fun i -> Int64.of_int i) ] in
  List.iter
    (fun factor ->
      let c =
        Driver.compile
          ~options:
            { Driver.default_options with
              Driver.unroll_outer_factor = factor;
              bus_elements = factor }
          ~entry:"fir" src
      in
      let r = Driver.simulate ~arrays c in
      Printf.printf "%8d %8d %14d %10.1f %8d\n" factor
        c.Driver.area.Area.slices
        (List.length c.Driver.kernel.Kernel.outputs)
        c.Driver.area.Area.clock_mhz r.Engine.cycles)
    [ 1; 2; 4; 8 ]

let ablation_backend_optimize () =
  section "Ablation - back-end CSE/copy-propagation/DCE";
  Printf.printf "%-15s %14s %14s %8s\n" "kernel" "on (slices)" "off (slices)"
    "saving";
  List.iter
    (fun name ->
      match Kernels.find name with
      | None -> ()
      | Some b ->
        let on = Kernels.compile b in
        let off =
          Driver.compile
            ~options:
              { (b.Kernels.tune Driver.default_options) with
                Driver.optimize_vm = false }
            ~luts:b.Kernels.luts ~entry:b.Kernels.entry b.Kernels.source
        in
        let s_on = on.Driver.area.Area.slices in
        let s_off = off.Driver.area.Area.slices in
        Printf.printf "%-15s %14d %14d %7.0f%%\n" name s_on s_off
          (100.0 *. (1.0 -. (float_of_int s_on /. float_of_int s_off))))
    [ "dct"; "fir"; "square_root"; "wavelet" ]

let ablation_loop_fusion () =
  section "Ablation - loop fusion (two filters over one array)";
  let two_loops =
    "void pair(int8 A[36], int16 C[32], int16 E[32]) {\n\
    \  int i;\n\
    \  for (i = 0; i < 32; i++) { C[i] = 3*A[i] + 5*A[i+1] - A[i+4]; }\n\
    \  for (i = 0; i < 32; i++) { E[i] = 2*A[i] + 4*A[i+2] + A[i+3]; }\n\
     }\n"
  in
  let fused = Driver.compile ~entry:"pair" two_loops in
  (match
     Driver.compile
       ~options:{ Driver.default_options with Driver.fuse_loops = false }
       ~entry:"pair" two_loops
   with
  | _ -> Printf.printf "unfused: unexpectedly compiled as one kernel\n"
  | exception Driver.Error msg ->
    Printf.printf "without fusion the pair is rejected: %s\n" msg);
  Printf.printf
    "fused: one loop, %d window input(s) sharing one smart buffer, %d \
     outputs/cycle, %d slices\n"
    (List.length fused.Driver.kernel.Kernel.windows)
    (List.length fused.Driver.kernel.Kernel.outputs)
    fused.Driver.area.Area.slices;
  let arrays = [ "A", Array.init 36 (fun i -> Int64.of_int ((i * 7) - 100)) ] in
  Printf.printf "fused verifies: %b\n"
    (Driver.verify ~arrays fused = [])

let ablation_smart_buffer () =
  section "Ablation - smart buffer vs naive per-iteration fetches";
  List.iter
    (fun (name, b) ->
      let _c, r, _ = Kernels.run b in
      let naive =
        int_of_float
          (r.Engine.reuse_ratio *. float_of_int r.Engine.memory_reads)
      in
      Printf.printf
        "%-14s: smart %5d fetches | naive %5d | traffic saved %.0f%%\n" name
        r.Engine.memory_reads naive
        (100.0 *. (1.0 -. (1.0 /. Float.max 1.0 r.Engine.reuse_ratio))))
    [ "fir", Kernels.fir; "wavelet_rows", Kernels.wavelet ]

(* ------------------------------------------------------------------ *)
(* Data-flow engine - packed bitsets vs the set-based reference        *)
(* ------------------------------------------------------------------ *)

let df_fir_src n =
  Printf.sprintf
    "void fir(int8 A[%d], int16 C[%d]) {\n\
    \  int i;\n\
    \  for (i = 0; i < %d; i++) {\n\
    \    C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];\n\
    \  }\n\
     }\n"
    (n + 4) n n

let df_dct_row_src n =
  let row = Kernels.dct8_coeff.(1) in
  let terms =
    Array.to_list row
    |> List.mapi (fun t c ->
           if c >= 0 then Printf.sprintf "+ %d*X[i+%d]" c t
           else Printf.sprintf "- %d*X[i+%d]" (-c) t)
    |> String.concat " "
  in
  Printf.sprintf
    "void dct_row(int8 X[%d], int19 Y[%d]) {\n\
    \  int i;\n\
    \  for (i = 0; i < %d; i++) {\n\
    \    Y[i] = %s;\n\
    \  }\n\
     }\n"
    (n + 7) n n
    (String.sub terms 2 (String.length terms - 2))

(* run the pipeline up to (and including) SSA construction: the unrolled
   procedure these analyses see is exactly what the optimizer sees *)
let proc_after_ssa ~entry ~options src =
  let upto = ref [] in
  let rec take = function
    | [] -> ()
    | (p : Pass.pass) :: rest ->
      upto := p :: !upto;
      if p.Pass.name <> "ssa-and-cfg" then take rest
  in
  take (Pass.front_passes @ Pass.kernel_passes @ Pass.back_passes);
  let st =
    List.fold_left
      (fun st p -> Pass.step p st)
      (Pass.initial ~options ~entry src)
      (List.rev !upto)
  in
  Option.get st.Pass.st_proc

(* one timed run; sub-50ms measurements are repeated and the best kept *)
let df_time f =
  let once () =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  let first = once () in
  if first >= 0.05 then first
  else begin
    let reps = min 200 (max 3 (int_of_float (0.05 /. Float.max 1e-6 first))) in
    let best = ref first in
    for _ = 1 to reps do
      let t = once () in
      if t < !best then best := t
    done;
    !best
  end

type df_row = {
  df_kernel : string;
  df_unroll : int;
  df_blocks : int;
  df_instrs : int;
  df_regs : int;
  df_times : (string * float * float) list;  (* analysis, reference s, dense s *)
}

let dataflow_section () =
  section
    "Data-flow engine - packed-bitset worklist solver vs set-based reference";
  let workloads =
    [ "fir", df_fir_src 256, [ 16; 64; 256 ];
      "dct_row", df_dct_row_src 256, [ 16; 64; 256 ] ]
  in
  Printf.printf "%-8s %6s %7s %7s %6s | %10s %10s %8s\n" "kernel" "unroll"
    "blocks" "instrs" "regs" "analysis" "ref ms" "speedup";
  hr ();
  let rows =
    List.concat_map
      (fun (name, src, factors) ->
        List.map
          (fun factor ->
            let options =
              { Driver.default_options with
                Driver.unroll_outer_factor = factor;
                bus_elements = factor }
            in
            let proc = proc_after_ssa ~entry:name ~options src in
            let g = Cfg.build proc in
            let times =
              [ ( "liveness",
                  df_time (fun () -> Dataflow.Reference.liveness g),
                  df_time (fun () -> Dataflow.liveness_dense g) );
                ( "reaching",
                  df_time (fun () -> Dataflow.Reference.reaching_definitions g),
                  df_time (fun () -> Dataflow.reaching_dense g) );
                ( "available",
                  df_time (fun () -> Dataflow.Reference.available_expressions g),
                  df_time (fun () -> Dataflow.available_dense g) ) ]
            in
            let row =
              { df_kernel = name;
                df_unroll = factor;
                df_blocks = List.length proc.Proc.blocks;
                df_instrs = List.length (Proc.all_instrs proc);
                df_regs = Hashtbl.length proc.Proc.reg_kinds;
                df_times = times }
            in
            List.iteri
              (fun i (analysis, ref_s, dense_s) ->
                if i = 0 then
                  Printf.printf "%-8s %6d %7d %7d %6d" name factor
                    row.df_blocks row.df_instrs row.df_regs
                else Printf.printf "%-8s %6s %7s %7s %6s" "" "" "" "" "";
                Printf.printf " | %10s %10.3f %7.1fx\n" analysis
                  (1e3 *. ref_s)
                  (ref_s /. Float.max 1e-9 dense_s))
              times;
            row)
          factors)
      workloads
  in
  hr ();
  (* the acceptance gate: liveness and reaching at the deepest unroll *)
  let x256_min =
    rows
    |> List.filter (fun r -> r.df_unroll = 256)
    |> List.concat_map (fun r ->
           List.filter_map
             (fun (a, ref_s, dense_s) ->
               if a = "available" then None
               else Some (ref_s /. Float.max 1e-9 dense_s))
             r.df_times)
    |> List.fold_left Float.min infinity
  in
  Printf.printf
    "minimum x256 liveness/reaching speedup: %.1fx (target >= 5x) -> %s\n"
    x256_min
    (if x256_min >= 5.0 then "ok" else "BELOW TARGET");
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"kernel\": \"%s\", \"unroll\": %d, \"blocks\": %d, \
            \"instrs\": %d, \"regs\": %d, \"analyses\": ["
           r.df_kernel r.df_unroll r.df_blocks r.df_instrs r.df_regs);
      List.iteri
        (fun j (a, ref_s, dense_s) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf
            (Printf.sprintf
               "{ \"name\": \"%s\", \"reference_s\": %.6f, \"dense_s\": \
                %.6f, \"speedup\": %.2f }"
               a ref_s dense_s
               (ref_s /. Float.max 1e-9 dense_s)))
        r.df_times;
      Buffer.add_string buf
        (Printf.sprintf "] }%s\n" (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"x256_live_reach_speedup_min\": %.2f,\n" x256_min);
  Buffer.add_string buf
    (Printf.sprintf "  \"speedup_ok\": %b\n}\n" (x256_min >= 5.0));
  let oc = open_out "BENCH_dataflow.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_dataflow.json\n"

(* ------------------------------------------------------------------ *)
(* Pipelining - latch-bit / clock Pareto across clock targets          *)
(* ------------------------------------------------------------------ *)

type pl_row = {
  pl_kernel : string;
  pl_target_ns : float;
  pl_stages : int;
  pl_clock_mhz : float;
  pl_greedy_bits : int;
  pl_retimed_bits : int;
  pl_moves : int;
  pl_retime_ms : float;  (** the retiming pass span; report-only *)
}

let pipeline_section () =
  section
    "Pipelining - slack-based retiming vs greedy latch placement \
     (latch-bit / clock Pareto)";
  let grid = [ 3.0; 5.0; 8.0 ] in
  let gallery (b : Kernels.benchmark) targets =
    b.Kernels.bench_name, b.Kernels.source, b.Kernels.entry,
    b.Kernels.tune Driver.default_options, b.Kernels.luts, targets
  in
  (* square_root and udiv are the busiest retimer runs of the gallery:
     their rows show where retiming time goes *)
  let kernels =
    [ gallery Kernels.fir grid;
      gallery Kernels.dct grid;
      "acc", Kernels.paper_acc_source, "acc", Driver.default_options, [], grid;
      gallery Kernels.square_root [ 5.0 ];
      gallery Kernels.udiv [ 5.0 ] ]
  in
  Printf.printf "%-12s %9s %7s %10s | %11s %12s %6s %10s\n" "kernel" "target"
    "stages" "clock" "greedy bits" "retimed bits" "moves" "retime ms";
  hr ();
  let rows =
    List.concat_map
      (fun (name, source, entry, options, luts, targets) ->
        List.map
          (fun tns ->
            let retime_s = ref 0.0 in
            let instrument (ps : Driver.pass_stats) =
              if ps.Driver.pass_name = "retiming" then
                retime_s := ps.Driver.elapsed_s
            in
            let c =
              Driver.compile ~instrument
                ~options:{ options with Driver.target_ns = tns }
                ~luts ~entry source
            in
            let p = c.Driver.pipeline in
            let row =
              { pl_kernel = name;
                pl_target_ns = tns;
                pl_stages = p.Pipeline.stage_count;
                pl_clock_mhz = p.Pipeline.clock_mhz;
                pl_greedy_bits = p.Pipeline.greedy_latch_bits;
                pl_retimed_bits = p.Pipeline.latch_bits;
                pl_moves = p.Pipeline.retime_moves;
                pl_retime_ms = 1e3 *. !retime_s }
            in
            Printf.printf
              "%-12s %6.0f ns %7d %6.1f MHz | %11d %12d %6d %10.2f\n"
              row.pl_kernel row.pl_target_ns row.pl_stages row.pl_clock_mhz
              row.pl_greedy_bits row.pl_retimed_bits row.pl_moves
              row.pl_retime_ms;
            row)
          targets)
      kernels
  in
  hr ();
  (* the acceptance gates: retiming never spends more latch bits than
     greedy anywhere on the grid, and buys a strict reduction somewhere
     at the default 5 ns target *)
  let never_worse =
    List.for_all (fun r -> r.pl_retimed_bits <= r.pl_greedy_bits) rows
  in
  let strict_at_default =
    List.exists
      (fun r -> r.pl_target_ns = 5.0 && r.pl_retimed_bits < r.pl_greedy_bits)
      rows
  in
  Printf.printf "retimed <= greedy on every (kernel, target): %s\n"
    (if never_worse then "ok" else "VIOLATED");
  Printf.printf "strict reduction at the 5 ns default: %s\n"
    (if strict_at_default then "ok" else "NONE FOUND");
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"kernel\": \"%s\", \"target_ns\": %g, \"stages\": %d, \
            \"clock_mhz\": %.2f, \"greedy_latch_bits\": %d, \
            \"retimed_latch_bits\": %d, \"retime_moves\": %d, \
            \"retime_ms\": %.3f }%s\n"
           r.pl_kernel r.pl_target_ns r.pl_stages r.pl_clock_mhz
           r.pl_greedy_bits r.pl_retimed_bits r.pl_moves r.pl_retime_ms
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"retiming_ok\": %b,\n" never_worse);
  Buffer.add_string buf
    (Printf.sprintf "  \"strict_reduction_at_default\": %b\n}\n"
       strict_at_default);
  let oc = open_out "BENCH_pipeline.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_pipeline.json\n"

(* ------------------------------------------------------------------ *)
(* Batch service - cache and scheduler throughput                      *)
(* ------------------------------------------------------------------ *)

module Service = Roccc_service.Service
module Svc_cache = Roccc_service.Cache
module Scheduler = Roccc_service.Scheduler

let service_section () =
  section "Batch service - pass cache and parallel scheduler (Table 1 jobs)";
  let jobs = Service.table1_jobs () in
  let n_jobs = List.length jobs in
  let time_batch ?cache ~num_domains () =
    let t0 = Unix.gettimeofday () in
    let report = Service.run_batch ?cache ~num_domains jobs in
    let wall = Unix.gettimeofday () -. t0 in
    report, wall
  in
  (* cold vs warm: the same cache serves two consecutive batches *)
  let cache = Svc_cache.create () in
  let cold_report, cold_s = time_batch ~cache ~num_domains:1 () in
  let warm_report, warm_s = time_batch ~cache ~num_domains:1 () in
  let stats = Svc_cache.stats cache in
  Printf.printf
    "cold batch : %2d jobs in %7.1f ms (%d ok, %d failed)\n" n_jobs
    (1e3 *. cold_s)
    (List.length (Service.successes cold_report))
    (List.length (Service.failures cold_report));
  Printf.printf
    "warm batch : %2d jobs in %7.1f ms - %.1fx faster, %d cache hits\n"
    n_jobs (1e3 *. warm_s)
    (cold_s /. Float.max 1e-9 warm_s)
    stats.Svc_cache.hits;
  (* 1 vs N domains, uncached, so every job does full compiles. The
     scheduler clamps the request to the hardware parallelism; rows that
     resolve to the same effective worker count run the same configuration
     and share one measurement instead of re-timing identical work. *)
  let domain_counts = [ 1; 2; 4 ] in
  let measured : (int, float) Hashtbl.t = Hashtbl.create 4 in
  let domain_walls =
    List.map
      (fun d ->
        let workers = Scheduler.effective_workers ~num_domains:d n_jobs in
        let wall =
          match Hashtbl.find_opt measured workers with
          | Some wall -> wall
          | None ->
            let _, wall = time_batch ~num_domains:d () in
            Hashtbl.add measured workers wall;
            wall
        in
        Printf.printf
          "%d domain(s) -> %d worker(s): %2d jobs in %7.1f ms (%.1f jobs/s)\n"
          d workers n_jobs (1e3 *. wall)
          (float_of_int n_jobs /. wall);
        d, workers, wall)
      domain_counts
  in
  let jobs_per_s wall = float_of_int n_jobs /. wall in
  (* The gate is vacuous when every row resolved to one effective worker
     (a single-core host): all three rows then time the same sequential
     run, and "non-decreasing" passes no matter how the scheduler
     behaves. Say so explicitly instead of reporting a hollow pass. *)
  let multi_worker = List.exists (fun (_, w, _) -> w > 1) domain_walls in
  let scaling_ok =
    let rec non_decreasing = function
      | (_, _, w1) :: ((_, _, w2) :: _ as rest) ->
        jobs_per_s w2 >= jobs_per_s w1 && non_decreasing rest
      | _ -> true
    in
    non_decreasing domain_walls
  in
  Printf.printf "throughput non-decreasing with domains: %s\n"
    (if not multi_worker then
       "skipped (single-core host: every row ran 1 worker)"
     else if scaling_ok then "yes"
     else "NO");
  (* machine-readable summary alongside the human-readable table *)
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" n_jobs);
  Buffer.add_string buf (Printf.sprintf "  \"cold_s\": %.6f,\n" cold_s);
  Buffer.add_string buf (Printf.sprintf "  \"warm_s\": %.6f,\n" warm_s);
  Buffer.add_string buf
    (Printf.sprintf "  \"warm_speedup\": %.3f,\n"
       (cold_s /. Float.max 1e-9 warm_s));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"cache\": { \"hits\": %d, \"disk_hits\": %d, \"misses\": %d, \
        \"stores\": %d },\n"
       stats.Svc_cache.hits stats.Svc_cache.disk_hits stats.Svc_cache.misses
       stats.Svc_cache.stores);
  Buffer.add_string buf "  \"domains\": [\n";
  List.iteri
    (fun i (d, workers, wall) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"domains\": %d, \"workers\": %d, \"wall_s\": %.6f, \
            \"jobs_per_s\": %.3f }%s\n"
           d workers wall
           (float_of_int n_jobs /. wall)
           (if i = List.length domain_walls - 1 then "" else ",")))
    domain_walls;
  Buffer.add_string buf
    (Printf.sprintf "  ],\n  \"scaling_ok\": %s\n}\n"
       (if not multi_worker then "\"skipped: single-core host\""
        else string_of_bool scaling_ok));
  let oc = open_out "BENCH_service.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_service.json\n";
  ignore warm_report

(* ------------------------------------------------------------------ *)
(* Pareto autotuner - search quality and pruning gates                 *)
(* ------------------------------------------------------------------ *)

module Tune_objective = Roccc_tune.Objective
module Tune_search = Roccc_tune.Search
module Svc_trace = Roccc_service.Trace

(* trip count 16 so every unroll factor in the default grid divides it *)
let tune_fir_source =
  "void fir(int A[20], int C[16]) {\n\
  \  int i;\n\
  \  for (i = 0; i < 16; i = i + 1) {\n\
  \    C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];\n\
  \  }\n\
   }\n"

let tune_section () =
  section "Pareto autotuner - FIR unroll x bus x clock-target search";
  let obj = Tune_objective.Max_mhz { slice_budget = 4000 } in
  let settings = Tune_search.default_settings obj in
  let trace = Svc_trace.create () in
  let r = Tune_search.run ~trace settings ~source:tune_fir_source ~entry:"fir" in
  print_string (Tune_search.table r);
  let front_size = List.length r.Tune_search.res_front in
  (* gates: a real search explored a non-trivial grid, produced a
     non-degenerate front, paid for strictly fewer full compiles than
     the exhaustive grid, and visibly reused cached mid-end passes *)
  let front_ok = front_size >= 3 && r.Tune_search.res_explored >= 20 in
  let pruning_ok = r.Tune_search.res_full_evals < r.Tune_search.res_explored in
  let cached_spans =
    List.length
      (List.filter
         (fun (s : Svc_trace.span) ->
           List.mem_assoc "cached" s.Svc_trace.sp_args)
         (Svc_trace.spans trace))
  in
  let cached_ok = cached_spans > 0 in
  Printf.printf
    "front %d/%d candidates (full compiles %d, cached pass reuses %d)\n"
    front_size r.Tune_search.res_explored r.Tune_search.res_full_evals
    cached_spans;
  Printf.printf "front_ok: %s | pruning_ok: %s | cached_ok: %s\n"
    (if front_ok then "yes" else "NO")
    (if pruning_ok then "yes" else "NO")
    (if cached_ok then "yes" else "NO");
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"objective\": \"%s\",\n"
       (Tune_objective.name r.Tune_search.res_objective));
  Buffer.add_string buf
    (Printf.sprintf "  \"explored\": %d,\n" r.Tune_search.res_explored);
  Buffer.add_string buf
    (Printf.sprintf "  \"quick_evals\": %d,\n" r.Tune_search.res_quick_evals);
  Buffer.add_string buf
    (Printf.sprintf "  \"estimate_evals\": %d,\n"
       r.Tune_search.res_estimate_evals);
  Buffer.add_string buf
    (Printf.sprintf "  \"full_evals\": %d,\n" r.Tune_search.res_full_evals);
  Buffer.add_string buf (Printf.sprintf "  \"front_size\": %d,\n" front_size);
  Buffer.add_string buf
    (Printf.sprintf "  \"cached_pass_reuses\": %d,\n" cached_spans);
  Buffer.add_string buf (Printf.sprintf "  \"wall_s\": %.6f,\n" r.Tune_search.res_wall_s);
  Buffer.add_string buf (Printf.sprintf "  \"front_ok\": %b,\n" front_ok);
  Buffer.add_string buf (Printf.sprintf "  \"pruning_ok\": %b,\n" pruning_ok);
  Buffer.add_string buf (Printf.sprintf "  \"cached_ok\": %b\n}\n" cached_ok);
  let oc = open_out "BENCH_tune.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_tune.json\n"

(* ------------------------------------------------------------------ *)
(* Wide arithmetic - pinned multi-stage operator regions               *)
(* ------------------------------------------------------------------ *)

(* Three gates: the modular-square gallery kernel compiles end-to-end
   with at least one multi-stage operator and hardware = software; the
   pinned region starts survive retiming untouched (and the pipeline
   invariant checker agrees); and the single-cycle path is bit-for-bit
   what it was before the staged-operator refactor (the FIR golden
   dumps). *)
let wide_section () =
  section
    "Wide arithmetic - multi-stage operator regions (modular square over \
     2^31-1)";
  let b = Kernels.modsq in
  let c = Kernels.compile b in
  let p = c.Driver.pipeline in
  let arrays = b.Kernels.arrays () in
  let diffs = Driver.verify ~scalars:b.Kernels.scalars ~arrays c in
  let regions = Pipeline.staged_regions p in
  let region_key (i, s, k) =
    ( (match i.Roccc_vm.Instr.dst with Some d -> d | None -> -1),
      Roccc_vm.Instr.opcode_name i.Roccc_vm.Instr.op, s, k )
  in
  let modsq_compiles_ok = diffs = [] && regions <> [] in
  Printf.printf
    "modsq: %d stages, %.1f MHz, %d latch bits, %d pinned region(s), \
     hardware %s software\n"
    p.Pipeline.stage_count p.Pipeline.clock_mhz p.Pipeline.latch_bits
    (List.length regions)
    (if diffs = [] then "=" else "<>");
  List.iter
    (fun (i, s, k) ->
      Printf.printf "  pinned: %-4s stages %d..%d (%d stages)\n"
        (Roccc_vm.Instr.opcode_name i.Roccc_vm.Instr.op)
        s (s + k - 1) k)
    regions;
  (* the same staging without the retiming pass: region starts must agree,
     i.e. retiming moved nothing into or across a pinned region *)
  let greedy =
    Pipeline.build
      ~target_ns:c.Driver.options.Driver.target_ns
      ~stage_budget:c.Driver.options.Driver.stage_budget
      ~decomp:c.Driver.options.Driver.decomp ~retime:false p.Pipeline.dp
      p.Pipeline.widths
  in
  let sorted_regions q =
    List.sort compare (List.map region_key (Pipeline.staged_regions q))
  in
  let verify_ok =
    match Pipeline.verify p with
    | () -> true
    | exception Pipeline.Error msg ->
      Printf.printf "pipeline verify FAILED: %s\n" msg;
      false
  in
  let in_schedule =
    List.for_all (fun (_, s, k) -> s + k <= p.Pipeline.stage_count) regions
  in
  let pinned_stages_ok =
    sorted_regions p = sorted_regions greedy && verify_ok && in_schedule
  in
  Printf.printf
    "pinned regions: retimed = greedy %b, inside schedule %b, verify %s \
     (%d retime moves elsewhere)\n"
    (sorted_regions p = sorted_regions greedy)
    in_schedule
    (if verify_ok then "ok" else "FAILED")
    p.Pipeline.retime_moves;
  (* single-cycle path unchanged: the FIR golden dumps are byte-identical *)
  let golden_passes =
    [ "parse"; "constant-fold"; "lower-to-suifvm"; "datapath-build";
      "pipelining"; "retiming" ]
  in
  let golden_dir = "test/golden" in
  let golden_unchanged =
    if not (Sys.file_exists golden_dir) then `Skipped
    else begin
      let dumps = ref [] in
      let config =
        { (Pass.default_config ()) with
          Pass.dump_after = golden_passes;
          on_dump = (fun name text -> dumps := !dumps @ [ name, text ]) }
      in
      let fir = Kernels.fir in
      let (_ : Driver.compiled) =
        Driver.compile ~config
          ~options:(fir.Kernels.tune Driver.default_options)
          ~luts:fir.Kernels.luts ~entry:fir.Kernels.entry fir.Kernels.source
      in
      let last name =
        match List.rev (List.filter (fun (n, _) -> n = name) !dumps) with
        | (_, text) :: _ -> Some text
        | [] -> None
      in
      let ok =
        List.for_all
          (fun name ->
            let path = Printf.sprintf "%s/fir.%s.txt" golden_dir name in
            match last name with
            | Some text when Sys.file_exists path ->
              let ic = open_in_bin path in
              let n = in_channel_length ic in
              let expected = really_input_string ic n in
              close_in ic;
              let same = String.equal expected text in
              if not same then
                Printf.printf "golden dump DIVERGED: %s\n" path;
              same
            | _ ->
              Printf.printf "golden dump missing: %s\n" path;
              false)
          golden_passes
      in
      if ok then `Ok else `Failed
    end
  in
  Printf.printf "golden fir dumps: %s\n"
    (match golden_unchanged with
    | `Ok -> "byte-identical"
    | `Failed -> "DIVERGED"
    | `Skipped -> "skipped (no test/golden directory)");
  (* VDF-contest replay: the stage-budget x decomposition trade-off on
     the modular-square kernel, searched by the autotuner at tight clock
     targets. Staged wide operators (budget 0 = natural depth, or >= 2)
     must dominate the unstaged points (budget 1: the whole wide region
     in one combinational stage) on achieved clock. *)
  let vdf_source =
    if Sys.file_exists "examples/modsq.c" then begin
      let ic = open_in_bin "examples/modsq.c" in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    end
    else b.Kernels.source
  in
  let vdf_obj = Tune_objective.Max_mhz { slice_budget = 100_000 } in
  let vdf_settings =
    { (Tune_search.default_settings vdf_obj) with
      Tune_search.st_margin = 0.0;
      st_space =
        { Tune_search.sp_unroll = [ 1 ];
          sp_bus = [ 1 ];
          sp_target_ns = [ 2.0; 3.0 ];
          sp_stage_budget = [ 0; 1; 2; 4 ];
          sp_decomp = Roccc_datapath.Delay.all_decomps } }
  in
  let vr = Tune_search.run vdf_settings ~source:vdf_source ~entry:"modsq" in
  print_string (Tune_search.table vr);
  let vdf_measured =
    List.filter_map
      (fun (r : Tune_search.row) ->
        match r.Tune_search.rw_measure with
        | Some m -> Some (r.Tune_search.rw_cand, m)
        | None -> None)
      vr.Tune_search.res_rows
  in
  let best pred =
    List.fold_left
      (fun acc ((cd : Tune_search.candidate), (m : Driver.measurement)) ->
        if pred cd then Float.max acc m.Driver.ms_clock_mhz else acc)
      0.0 vdf_measured
  in
  let staged (cd : Tune_search.candidate) =
    cd.Tune_search.cd_stage_budget <> 1
  in
  let staged_best = best staged in
  let unstaged_best = best (fun c -> not (staged c)) in
  let vdf_front_ok = vr.Tune_search.res_front <> [] in
  let vdf_staged_dominates = unstaged_best > 0. && staged_best > unstaged_best in
  Printf.printf
    "vdf stage-budget study: front %d/%d, staged best %.1f MHz vs unstaged \
     %.1f MHz -> staged %s\n"
    (List.length vr.Tune_search.res_front)
    vr.Tune_search.res_explored staged_best unstaged_best
    (if vdf_staged_dominates then "dominates" else "DOES NOT dominate");
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"modsq\": { \"stages\": %d, \"clock_mhz\": %.2f, \"latch_bits\": \
        %d, \"slices\": %d, \"multi_stage_ops\": %d },\n"
       p.Pipeline.stage_count p.Pipeline.clock_mhz p.Pipeline.latch_bits
       c.Driver.area.Area.slices (List.length regions));
  Buffer.add_string buf "  \"regions\": [\n";
  List.iteri
    (fun i (instr, s, k) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"op\": \"%s\", \"start_stage\": %d, \"stages\": %d }%s\n"
           (Roccc_vm.Instr.opcode_name instr.Roccc_vm.Instr.op)
           s k
           (if i = List.length regions - 1 then "" else ",")))
    regions;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"vdf\": { \"explored\": %d, \"front_size\": %d, \
        \"staged_best_mhz\": %.2f, \"unstaged_best_mhz\": %.2f },\n"
       vr.Tune_search.res_explored
       (List.length vr.Tune_search.res_front)
       staged_best unstaged_best);
  Buffer.add_string buf
    (Printf.sprintf "  \"vdf_front_ok\": %b,\n" vdf_front_ok);
  Buffer.add_string buf
    (Printf.sprintf "  \"vdf_staged_dominates_ok\": %b,\n" vdf_staged_dominates);
  Buffer.add_string buf
    (Printf.sprintf "  \"modsq_compiles_ok\": %b,\n" modsq_compiles_ok);
  Buffer.add_string buf
    (Printf.sprintf "  \"pinned_stages_ok\": %b,\n" pinned_stages_ok);
  Buffer.add_string buf
    (Printf.sprintf "  \"golden_unchanged_ok\": %s\n}\n"
       (match golden_unchanged with
       | `Ok -> "true"
       | `Failed -> "false"
       | `Skipped -> "\"skipped: no test/golden directory\""));
  let oc = open_out "BENCH_wide.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_wide.json\n"

(* ------------------------------------------------------------------ *)
(* Process networks - two-kernel streaming pipeline with sized FIFOs   *)
(* ------------------------------------------------------------------ *)

(* Gates: the gallery network's co-simulation output is byte-identical
   to the sequential composition of the per-kernel software models
   (sized depths AND a depth-1 stress run), every channel depth meets
   the rate-analysis minimum, and at least one sized FIFO is smaller
   than the full inter-kernel buffer. *)
let net_section () =
  section "Process network - fir -> smooth through a sized FIFO channel";
  let quiet =
    { (Pass.default_config ()) with Pass.on_dump = (fun _ _ -> ()) }
  in
  let net =
    Net.plan ~config:quiet ~name:Net.gallery_pipeline Net.gallery_source
  in
  print_string (Net.describe net);
  let arrays = Net.gallery_arrays () in
  let sized_diffs = Net.verify ~arrays net in
  let stress_diffs = Net.verify ~arrays ~depths:[ 1 ] net in
  let byte_identical = sized_diffs = [] && stress_diffs = [] in
  let sim = Net.simulate ~arrays net in
  let stress = Net.simulate ~arrays ~depths:[ 1 ] net in
  let depths_ok =
    List.for_all
      (fun (ch : Net.channel) -> ch.Net.ch_depth >= ch.Net.ch_min_depth)
      net.Net.net_channels
  in
  let fifo_smaller =
    List.exists
      (fun (ch : Net.channel) -> ch.Net.ch_depth < ch.Net.ch_elements)
      net.Net.net_channels
  in
  Printf.printf
    "co-sim %d cycles (depth-1 stress %d cycles, %d full-stalls); network \
     output %s sequential composition\n"
    sim.Net.nr_cycles stress.Net.nr_cycles
    (List.fold_left
       (fun acc (cs : Net.channel_stats) -> acc + cs.Net.cs_full_stalls)
       0 stress.Net.nr_channels)
    (if byte_identical then "=" else "<>");
  List.iter
    (fun (cs : Net.channel_stats) ->
      Printf.printf
        "  channel %-16s depth %d (min %d), high water %d, %d pushed, \
         stalls full/empty %d/%d\n"
        cs.Net.cs_name cs.Net.cs_depth cs.Net.cs_min_depth
        cs.Net.cs_high_water cs.Net.cs_pushed cs.Net.cs_full_stalls
        cs.Net.cs_empty_stalls)
    sim.Net.nr_channels;
  Printf.printf
    "net_byte_identical: %s | depths_ok: %s | fifo_smaller_than_buffer: %s\n"
    (if byte_identical then "yes" else "NO")
    (if depths_ok then "yes" else "NO")
    (if fifo_smaller then "yes" else "NO");
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"pipeline\": \"%s\",\n" net.Net.net_name);
  Buffer.add_string buf
    (Printf.sprintf "  \"stages\": %d,\n" (List.length net.Net.net_stages));
  Buffer.add_string buf
    (Printf.sprintf "  \"cycles\": %d,\n" sim.Net.nr_cycles);
  Buffer.add_string buf
    (Printf.sprintf "  \"stress_cycles\": %d,\n" stress.Net.nr_cycles);
  Buffer.add_string buf "  \"channels\": [\n";
  let n_ch = List.length sim.Net.nr_channels in
  List.iteri
    (fun i (cs : Net.channel_stats) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"name\": \"%s\", \"depth\": %d, \"min_depth\": %d, \
            \"high_water\": %d, \"pushed\": %d, \"full_stalls\": %d, \
            \"empty_stalls\": %d }%s\n"
           cs.Net.cs_name cs.Net.cs_depth cs.Net.cs_min_depth
           cs.Net.cs_high_water cs.Net.cs_pushed cs.Net.cs_full_stalls
           cs.Net.cs_empty_stalls
           (if i = n_ch - 1 then "" else ",")))
    sim.Net.nr_channels;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"net_byte_identical\": %b,\n" byte_identical);
  Buffer.add_string buf (Printf.sprintf "  \"depths_ok\": %b,\n" depths_ok);
  Buffer.add_string buf
    (Printf.sprintf "  \"fifo_smaller_than_buffer\": %b\n}\n" fifo_smaller);
  let oc = open_out "BENCH_net.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_net.json\n"

(* ------------------------------------------------------------------ *)
(* Serve soak - mixed load through the Unix socket at 1/2/4 workers    *)
(* ------------------------------------------------------------------ *)

module Server = Roccc_service.Server
module Svc_json = Roccc_service.Json
module Svc_faults = Roccc_service.Faults
module Svc_metrics = Roccc_service.Metrics

let soak_kernel c =
  Printf.sprintf
    "void k(int16 A[20], int32 B[16]) { int i; for (i = 0; i < 16; i = i + \
     1) { B[i] = A[i] * %d + A[i+1] * %d + A[i+2] * %d + A[i+3] * %d + \
     A[i+4] * %d; } }"
    c (c + 3) (c + 5) (c + 7) (c + 11)

(* The mixed load: compile requests over cold keys, each distinct
   (source x options) key on two adjacent lines — the second is answered
   from the cache, or, when the two land on different connections at
   once, coalesces onto the first's single flight — with a health probe
   every 40th line. The first two keys are the stage kernels of the
   two-kernel gallery network (examples/stream.c), so the soak also covers
   sources carrying a [pipeline] declaration through the protocol. Every
   run starts from a fresh in-memory cache, so the stream is
   compile-bound. Generated once and replayed identically at every worker
   count, so responses are comparable across runs. *)
let soak_request i =
  let key = i / 2 in
  if key < 2 then
    Printf.sprintf {|"source":%S,"entry":%S|} Net.gallery_source
      (if key = 0 then "fir" else "smooth")
  else
    Printf.sprintf {|"source":%S,"entry":"k","options":{"bus_elements":%d}|}
      (soak_kernel key) (1 + (key mod 2))

let soak_is_health i = i mod 40 = 39

let soak_lines n =
  List.init n (fun i ->
      if soak_is_health i then
        Printf.sprintf {|{"id":"h%05d","type":"health"}|} i
      else Printf.sprintf {|{"id":"r%05d",%s}|} i (soak_request i))

let soak_distinct_keys n =
  let keys = Hashtbl.create n in
  for i = 0 to n - 1 do
    if not (soak_is_health i) then Hashtbl.replace keys (soak_request i) ()
  done;
  Hashtbl.length keys

(* Push one request stream through a real Unix socket: a spawned domain
   accepts and serves, a writer domain feeds the lines, and the calling
   domain drains responses. The queue is sized to the stream so nothing
   is shed (shedding is timing-dependent and would break the
   byte-identical comparison). *)
let soak_run ?trace ~workers (lines : string list) =
  (* the previous run's cache is garbage now: collect it here rather than
     inside the next timed run *)
  Gc.compact ();
  let cache = Svc_cache.create () in
  let limits =
    { Server.default_limits with
      Server.workers;
      queue_depth = List.length lines + 1 }
  in
  let srv = Server.create ~cache ?trace ~limits () in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "roccc-soak-%d-%d.sock" (Unix.getpid ()) workers)
  in
  if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 1;
  let server_domain =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let snap = Server.serve srv ic oc in
        (try flush oc with Sys_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        snap)
  in
  let client = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect client (Unix.ADDR_UNIX path);
  let t0 = Unix.gettimeofday () in
  let writer =
    Domain.spawn (fun () ->
        let wc = Unix.out_channel_of_descr client in
        List.iter
          (fun l ->
            output_string wc l;
            output_char wc '\n')
          lines;
        flush wc;
        (* half-close: the server sees EOF and drains; responses still
           flow back on the other direction *)
        try Unix.shutdown client Unix.SHUTDOWN_SEND
        with Unix.Unix_error _ -> ())
  in
  let rc = Unix.in_channel_of_descr client in
  let rec read_all acc =
    match input_line rc with
    | line -> read_all (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let responses = read_all [] in
  let wall = Unix.gettimeofday () -. t0 in
  Domain.join writer;
  let snap = Domain.join server_domain in
  (try Unix.close client with Unix.Unix_error _ -> ());
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Sys.remove path with Sys_error _ -> ());
  responses, wall, snap

(* Push the same request stream through [conns] SIMULTANEOUS socket
   connections into one {!Server.serve_socket} accept loop: the lines
   are dealt round-robin across the connections, each connection
   streams its share from a writer domain while a reader domain drains
   its responses. Duplicated keys land on different connections at the
   same time, which is exactly the load single-flight deduplication
   exists for; the returned cache stats expose [flights] (executions)
   and [coalesced]. *)
let soak_run_concurrent ?(workers = 4) ~conns (lines : string list) =
  Gc.compact ();
  let cache = Svc_cache.create () in
  let limits =
    { Server.default_limits with
      Server.workers;
      queue_depth = List.length lines + 1 }
  in
  let srv = Server.create ~cache ~limits () in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "roccc-csoak-%d-%d.sock" (Unix.getpid ()) conns)
  in
  if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock (max 8 conns);
  let server_domain =
    Domain.spawn (fun () -> Server.serve_socket ~poll_interval_s:0.01 srv sock)
  in
  let shares = Array.make conns [] in
  List.iteri (fun i l -> shares.(i mod conns) <- l :: shares.(i mod conns))
    lines;
  let shares = Array.map List.rev shares in
  let t0 = Unix.gettimeofday () in
  let clients =
    Array.map
      (fun share ->
        Domain.spawn (fun () ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX path);
            let writer =
              Domain.spawn (fun () ->
                  let wc = Unix.out_channel_of_descr fd in
                  List.iter
                    (fun l ->
                      output_string wc l;
                      output_char wc '\n')
                    share;
                  flush wc;
                  try Unix.shutdown fd Unix.SHUTDOWN_SEND
                  with Unix.Unix_error _ -> ())
            in
            let rc = Unix.in_channel_of_descr fd in
            let rec read_all acc =
              match input_line rc with
              | line -> read_all (line :: acc)
              | exception End_of_file -> List.rev acc
            in
            let responses = read_all [] in
            Domain.join writer;
            (try Unix.close fd with Unix.Unix_error _ -> ());
            responses))
      shares
  in
  let responses = List.concat_map Domain.join (Array.to_list clients) in
  let wall = Unix.gettimeofday () -. t0 in
  Server.request_stop srv;
  let snap = Domain.join server_domain in
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Sys.remove path with Sys_error _ -> ());
  responses, wall, snap, Svc_cache.stats cache

(* Compile responses only (ids r....), sorted by id, with the two fields
   that legitimately vary across runs stripped: elapsed_ms (timing) and
   origin (whether a repeated key raced its first compile is
   scheduling-dependent; the payload bytes are not). *)
let soak_canonical (responses : string list) : string list =
  List.filter_map
    (fun line ->
      match Svc_json.parse line with
      | Error msg -> failwith ("unparseable soak response: " ^ msg)
      | Ok j -> (
        match Svc_json.member "id" j with
        | Some (Svc_json.Str id)
          when String.length id > 0 && id.[0] = 'r' -> (
          match j with
          | Svc_json.Obj fields ->
            Some
              ( id,
                Svc_json.to_string
                  (Svc_json.Obj
                     (List.filter
                        (fun (k, _) -> k <> "elapsed_ms" && k <> "origin")
                        fields)) )
          | _ -> Some (id, line))
        | _ -> None))
    responses
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map snd

let structured_status line =
  match Svc_json.parse line with
  | Error _ -> false
  | Ok j -> (
    match
      Option.bind (Svc_json.member "status" j) Svc_json.to_string_opt
    with
    | Some ("ok" | "error" | "overloaded" | "deadline_exceeded") -> true
    | _ -> false)

(* Size the stream so that even the fastest configuration (4 workers
   behind 4 simultaneous connections) runs for at least a second on this
   host: time the faster of two pilots there (the first also warms up)
   and scale it, with headroom. A run of a few ms measures scheduling
   noise, not throughput. *)
let soak_size () =
  let pilot = 1000 in
  let time_pilot () =
    let _, wall, _, _ =
      soak_run_concurrent ~workers:4 ~conns:4 (soak_lines pilot)
    in
    wall
  in
  let wall = Float.min (time_pilot ()) (time_pilot ()) in
  min 40_000
    (max pilot (int_of_float (ceil (float_of_int pilot *. 1.5 /. wall))))

let soak_repeats = 3

let rps responses wall = float_of_int (List.length responses) /. wall

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* Each configuration's runs, repeated [soak_repeats] times in interleaved
   rounds (every configuration once per round) so slow drift of the host
   hits all configurations alike. *)
let soak_rounds configs run =
  let rounds =
    List.init soak_repeats (fun round ->
        List.map (fun cfg -> run ~round cfg) configs)
  in
  List.mapi (fun i cfg -> cfg, List.map (fun r -> List.nth r i) rounds) configs

let serve_soak_section () =
  section "Serve soak - mixed load through the Unix socket at 1/2/4 workers";
  let n = soak_size () in
  let lines = soak_lines n in
  let distinct_keys = soak_distinct_keys n in
  Printf.printf
    "%d requests per run (%d distinct compile keys), %d repeats per \
     configuration\n%!"
    n distinct_keys soak_repeats;
  let worker_counts = [ 1; 2; 4 ] in
  let trace = Svc_trace.create () in
  let runs =
    soak_rounds worker_counts (fun ~round w ->
        (* trace only the widest run of the last round: its per-shard
           counter tracks show the striped cache under the most
           concurrency *)
        let trace =
          if w = 4 && round = soak_repeats - 1 then Some trace else None
        in
        let responses, wall, snap = soak_run ?trace ~workers:w lines in
        Printf.printf
          "%d worker(s): %5d responses in %7.1f ms (%7.1f req/s, p50 %.2f \
           ms, p95 %.2f ms)\n%!"
          w (List.length responses) (1e3 *. wall) (rps responses wall)
          snap.Svc_metrics.s_p50_ms snap.Svc_metrics.s_p95_ms;
        responses, wall, snap)
  in
  let median_rps reps =
    median (List.map (fun (rs, wall, _) -> rps rs wall) reps)
  in
  let all_runs = List.concat_map snd runs in
  (* gate 1: every run answered every line, and the compile responses are
     byte-identical across worker counts and repeats (after stripping
     timing/origin) *)
  let all_answered =
    List.for_all (fun (rs, _, _) -> List.length rs = n) all_runs
  in
  let canonicals = List.map (fun (rs, _, _) -> soak_canonical rs) all_runs in
  let byte_identical =
    all_answered
    && (match canonicals with
       | first :: rest -> List.for_all (fun c -> c = first) rest
       | [] -> false)
  in
  (* gate 2: median throughput must not collapse as workers grow. On a
     single-core host every worker count resolves to one domain, so the
     gate is skipped there — explicitly, not vacuously. *)
  let multi_core = Roccc_service.Pool.recommended () > 1 in
  let tolerance = 0.9 in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> b >= tolerance *. a && non_decreasing rest
    | _ -> true
  in
  let throughput_ok =
    non_decreasing (List.map (fun (_, reps) -> median_rps reps) runs)
  in
  List.iter
    (fun (w, reps) ->
      Printf.printf "%d worker(s): median %.1f req/s\n" w (median_rps reps))
    runs;
  Printf.printf "responses byte-identical across worker counts: %s\n"
    (if byte_identical then "yes" else "NO");
  Printf.printf "median throughput non-decreasing with workers: %s\n"
    (if not multi_core then "skipped (single-core host)"
     else if throughput_ok then "yes"
     else "NO");
  (* gate 3: a faulted burst stays structured — every line is answered
     with a known status, nothing crashes or hangs *)
  let fault_n = 160 in
  let fault_lines = soak_lines fault_n in
  let faults_structured =
    match Svc_faults.parse "scheduler_claim:0.2,driver_pass:0.05,cache_read:0.25"
    with
    | Error msg -> failwith ("bad fault spec: " ^ msg)
    | Ok plan ->
      Svc_faults.install plan;
      Fun.protect ~finally:Svc_faults.clear (fun () ->
          let responses, _, _ = soak_run ~workers:2 fault_lines in
          List.length responses = fault_n
          && List.for_all structured_status responses)
  in
  Printf.printf "faulted burst structured: %s\n"
    (if faults_structured then "yes" else "NO");
  (* gates 4-6: the same stream through 1 vs 4 SIMULTANEOUS connections
     into one serve_socket accept loop. Responses must stay correctly
     routed and byte-identical to the sequential runs, concurrent
     duplicate keys must coalesce onto single-flight leaders
     (executions <= distinct keys), and fanning the stream out across
     connections must not cost median throughput. *)
  let conn_counts = [ 1; 4 ] in
  let conc_runs =
    soak_rounds conn_counts (fun ~round:_ conns ->
        let responses, wall, snap, cstats =
          soak_run_concurrent ~workers:4 ~conns lines
        in
        Printf.printf
          "%d connection(s): %5d responses in %7.1f ms (%7.1f req/s, %d \
           executions, %d coalesced)\n%!"
          conns (List.length responses) (1e3 *. wall) (rps responses wall)
          cstats.Svc_cache.flights cstats.Svc_cache.coalesced;
        responses, wall, snap, cstats)
  in
  let conc_all = List.concat_map snd conc_runs in
  let conc_all_answered =
    List.for_all (fun (rs, _, _, _) -> List.length rs = n) conc_all
  in
  let concurrent_byte_identical =
    (* vs the sequential-connection runs above AND across each other *)
    conc_all_answered
    && (match canonicals with
       | first :: _ ->
         List.for_all (fun (rs, _, _, _) -> soak_canonical rs = first) conc_all
       | [] -> false)
  in
  let coalesce_ok =
    List.for_all
      (fun (_, _, _, (st : Svc_cache.stats)) ->
        st.Svc_cache.flights >= 1 && st.Svc_cache.flights <= distinct_keys)
      conc_all
  in
  let conc_median_rps reps =
    median (List.map (fun (rs, wall, _, _) -> rps rs wall) reps)
  in
  let min_wall =
    List.fold_left Float.min infinity
      (List.map (fun (_, wall, _) -> wall) all_runs
      @ List.map (fun (_, wall, _, _) -> wall) conc_all)
  in
  Printf.printf "shortest run: %.2f s\n" min_wall;
  let concurrent_throughput_ok =
    non_decreasing (List.map (fun (_, reps) -> conc_median_rps reps) conc_runs)
  in
  List.iter
    (fun (c, reps) ->
      Printf.printf "%d connection(s): median %.1f req/s\n" c
        (conc_median_rps reps))
    conc_runs;
  Printf.printf "concurrent responses byte-identical to sequential: %s\n"
    (if concurrent_byte_identical then "yes" else "NO");
  Printf.printf "duplicate keys coalesce (executions <= %d): %s\n"
    distinct_keys
    (if coalesce_ok then "yes" else "NO");
  Printf.printf "median throughput non-decreasing 1 -> 4 connections: %s\n"
    (if not multi_core then "skipped (single-core host)"
     else if concurrent_throughput_ok then "yes"
     else "NO");
  let oc = open_out "serve_soak_trace.json" in
  output_string oc (Svc_trace.to_chrome_json trace);
  close_out oc;
  Printf.printf "wrote serve_soak_trace.json\n";
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sep i l = if i = List.length l - 1 then "" else "," in
  add "{\n";
  add "  \"requests_per_run\": %d,\n" n;
  add "  \"distinct_compile_keys\": %d,\n" distinct_keys;
  add "  \"repeats\": %d,\n" soak_repeats;
  add "  \"runs\": [\n";
  let flat =
    List.concat_map
      (fun (w, reps) -> List.mapi (fun r run -> w, r, run) reps)
      runs
  in
  List.iteri
    (fun i (w, r, (rs, wall, (snap : Svc_metrics.snapshot))) ->
      add
        "    { \"workers\": %d, \"repeat\": %d, \"responses\": %d, \
         \"wall_s\": %.6f, \"throughput_rps\": %.3f, \"p50_ms\": %.4f, \
         \"p95_ms\": %.4f, \"ok\": %d, \"health\": %d }%s\n"
        w r (List.length rs) wall (rps rs wall)
        snap.Svc_metrics.s_p50_ms snap.Svc_metrics.s_p95_ms
        snap.Svc_metrics.s_ok snap.Svc_metrics.s_health (sep i flat))
    flat;
  add "  ],\n";
  add "  \"median_throughput_rps\": [\n";
  List.iteri
    (fun i (w, reps) ->
      add "    { \"workers\": %d, \"rps\": %.3f }%s\n" w (median_rps reps)
        (sep i runs))
    runs;
  add "  ],\n";
  add "  \"byte_identical\": %b,\n" byte_identical;
  add "  \"throughput_tolerance\": %.2f,\n" tolerance;
  add "  \"throughput_ok\": %s,\n"
    (if not multi_core then "\"skipped: single-core host\""
     else string_of_bool throughput_ok);
  add "  \"faulted_requests\": %d,\n" fault_n;
  add "  \"faults_structured\": %b,\n" faults_structured;
  add "  \"concurrent_runs\": [\n";
  let conc_flat =
    List.concat_map
      (fun (c, reps) -> List.mapi (fun r run -> c, r, run) reps)
      conc_runs
  in
  List.iteri
    (fun i (conns, r, (rs, wall, (snap : Svc_metrics.snapshot),
                       (cstats : Svc_cache.stats))) ->
      add
        "    { \"connections\": %d, \"repeat\": %d, \"responses\": %d, \
         \"wall_s\": %.6f, \"throughput_rps\": %.3f, \"ok\": %d, \
         \"executions\": %d, \"coalesced\": %d, \"conns_accepted\": %d \
         }%s\n"
        conns r (List.length rs) wall (rps rs wall)
        snap.Svc_metrics.s_ok cstats.Svc_cache.flights
        cstats.Svc_cache.coalesced snap.Svc_metrics.s_conns (sep i conc_flat))
    conc_flat;
  add "  ],\n";
  add "  \"concurrent_median_throughput_rps\": [\n";
  List.iteri
    (fun i (c, reps) ->
      add "    { \"connections\": %d, \"rps\": %.3f }%s\n" c
        (conc_median_rps reps) (sep i conc_runs))
    conc_runs;
  add "  ],\n";
  add "  \"min_wall_s\": %.3f,\n" min_wall;
  add "  \"concurrent_byte_identical\": %b,\n" concurrent_byte_identical;
  add "  \"coalesce_ok\": %b,\n" coalesce_ok;
  add "  \"concurrent_throughput_ok\": %s\n}\n"
    (if not multi_core then "\"skipped: single-core host\""
     else string_of_bool concurrent_throughput_ok);
  let oc = open_out "BENCH_serve_soak.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_serve_soak.json\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let bechamel_section () =
  section "Bechamel micro-benchmarks";
  let open Bechamel in
  let compile_test name b =
    Test.make ~name (Staged.stage (fun () -> ignore (Kernels.compile b)))
  in
  let fir_c = Kernels.compile Kernels.fir in
  let estimate_test =
    Test.make ~name:"area-estimation:fir"
      (Staged.stage (fun () -> ignore (Area.quick_estimate fir_c.Driver.dp)))
  in
  let simulate_test =
    let arrays = Kernels.fir.Kernels.arrays () in
    Test.make ~name:"simulate:fir"
      (Staged.stage (fun () -> ignore (Driver.simulate ~arrays fir_c)))
  in
  let tests =
    [ compile_test "compile:fir" Kernels.fir;
      compile_test "compile:dct" Kernels.dct;
      compile_test "compile:udiv" Kernels.udiv;
      estimate_test;
      simulate_test ]
  in
  List.iter
    (fun t ->
      let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
      let instances = Toolkit.Instance.[ monotonic_clock ] in
      let results = Benchmark.all cfg instances t in
      let a =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-24s %12.1f ns/run\n" name est
          | Some _ | None -> Printf.printf "%-24s (no estimate)\n" name)
        a)
    tests

(* ------------------------------------------------------------------ *)

(* `bench --only dataflow,service` (or --only=...) runs just those
   sections — the CI smoke step uses it to regenerate the two machine-
   readable JSONs without replaying the full paper reproduction. *)
let sections : (string * (unit -> unit)) list =
  [ "table1", (fun () -> print_table1 (table1_rows ()));
    ( "figures",
      fun () ->
        figure1 ();
        figure1_profiling ();
        figure2 ();
        figure3 ();
        figure4 ();
        figure56 ();
        figure7 () );
    ( "claims",
      fun () ->
        throughput_section ();
        smart_buffer_section ();
        area_estimation_section ();
        power_section () );
    ( "ablations",
      fun () ->
        ablation_stage_budget ();
        ablation_bit_widths ();
        ablation_mul_acc_rewrite ();
        ablation_dct_unroll ();
        ablation_partial_unroll ();
        ablation_backend_optimize ();
        ablation_loop_fusion ();
        ablation_smart_buffer () );
    "dataflow", dataflow_section;
    "pipeline", pipeline_section;
    "service", service_section;
    "tune", tune_section;
    "wide", wide_section;
    "net", net_section;
    "serve-soak", serve_soak_section;
    "bechamel", bechamel_section ]

let selected_sections () : string list option =
  let argv = Sys.argv in
  let found = ref None in
  Array.iteri
    (fun i a ->
      let prefix = "--only=" in
      if a = "--only" && i + 1 < Array.length argv then
        found := Some argv.(i + 1)
      else if String.starts_with ~prefix a then
        found :=
          Some (String.sub a (String.length prefix)
                  (String.length a - String.length prefix)))
    argv;
  match !found with
  | None -> None
  | Some spec ->
    let names =
      String.split_on_char ',' spec
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    List.iter
      (fun n ->
        if not (List.mem_assoc n sections) then begin
          Printf.eprintf "unknown bench section %S; available: %s\n" n
            (String.concat ", " (List.map fst sections));
          exit 2
        end)
      names;
    Some names

let () =
  print_endline "ROCCC data-path generation - reproduction benchmark harness";
  print_endline "(paper numbers quoted from DATE 2005, Table 1)";
  let only = selected_sections () in
  let want name =
    match only with None -> true | Some names -> List.mem name names
  in
  List.iter (fun (name, run) -> if want name then run ()) sections;
  print_endline "\ndone."
