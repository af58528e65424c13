(** Data-path pipelining (paper §4.2.3): latch placement driven by the
    {!Timing} netlist's per-instruction delay estimation, followed by a
    slack-based retiming pass that slides low-fanout instructions across
    stage boundaries to minimize latch bits at the same clock target.

    Two invariants are preserved throughout: every SNX gets a latch feeding
    its LPR, and each LPR-to-SNX feedback path stays within a single stage
    so the pipeline accepts one iteration per cycle ("each pipeline stage is
    an instance of single iteration in the for-loop body"). *)

module Instr = Roccc_vm.Instr
module Proc = Roccc_vm.Proc

exception Error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(** Default combinational budget per stage, in nanoseconds. *)
let default_target_ns = 5.0

type staged_instr = {
  si : Instr.instr;
  si_node : int;       (** owning data-path node id *)
  mutable stage : int; (** start stage of the instruction's region *)
  si_delay : float;    (** per-stage combinational delay *)
  si_stages : int;     (** stages occupied: >1 = pinned multi-stage region *)
}

type t = {
  dp : Graph.t;
  widths : Widths.t;
  timing : Timing.t;               (** the timed netlist staged over *)
  instrs : staged_instr list;      (** topological order *)
  stage_count : int;
  stage_delays : float array;      (** worst combinational path per stage *)
  clock_mhz : float;
  latch_bits : int;                (** total pipeline-register bits *)
  greedy_latch_bits : int;         (** latch bits before retiming *)
  retime_moves : int;              (** accepted retiming moves *)
  feedback_bits : int;             (** SNX register bits *)
  target_ns : float;
  def_stage : (Instr.vreg, int) Hashtbl.t;
  instr_stage : (Instr.instr, int) Hashtbl.t;
}

let latency (p : t) = p.stage_count

(** Throughput in results per clock: one iteration enters per cycle, so it
    equals the number of outputs the data path produces per iteration. *)
let outputs_per_cycle (p : t) = List.length p.dp.Graph.output_ports

(** Stage where a register's value is produced (0 for external inputs). *)
let stage_of_def (p : t) (r : Instr.vreg) : int =
  Option.value (Hashtbl.find_opt p.def_stage r) ~default:0

(** Stage an instruction executes in (0 for instructions outside the staged
    set). *)
let stage_of_instr (p : t) (i : Instr.instr) : int =
  Option.value (Hashtbl.find_opt p.instr_stage i) ~default:0

(** Latch boundaries operand [r] crosses to reach instruction [i] — the
    delay-chain depth the VHDL generator materializes for this use. *)
let use_delay (p : t) (i : Instr.instr) (r : Instr.vreg) : int =
  max 0 (stage_of_instr p i - stage_of_def p r)

(** All pipeline flip-flop bits this staging implies — latch bits plus the
    SNX feedback registers. The area model charges registers from here.
    (A multi-stage operator's internal pipeline registers are part of the
    latch accounting: its consumers sit at least [si_stages] boundaries
    past its start stage, so the result's delay chain pays them.) *)
let register_bits (p : t) : int = p.latch_bits + p.feedback_bits

(** Pinned multi-stage regions of the staging, as
    [(instr, start_stage, stages)]. Empty for a purely single-cycle data
    path. *)
let staged_regions (p : t) : (Instr.instr * int * int) list =
  List.filter_map
    (fun si ->
      if si.si_stages > 1 then Some (si.si, si.stage, si.si_stages) else None)
    p.instrs

(** Number of multi-stage operators in the staging. *)
let multi_stage_ops (p : t) : int = List.length (staged_regions p)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Stage assignments live in an array indexed by [ti_index] while under
   construction; [staged_instr] is materialized at the end. *)

let stage_count_of (tm : Timing.t) (stages : int array) : int =
  1
  + List.fold_left
      (fun acc (ti : Timing.tinstr) ->
        max acc (stages.(ti.Timing.ti_index) + ti.Timing.ti_stages - 1))
      0 tm.Timing.instrs

(* Feedback sanity: every LPR/SNX pair of each feedback signal must share a
   stage, otherwise the loop would need more than one cycle per iteration. *)
let check_feedback_stages (tm : Timing.t) (stages : int array) : unit =
  List.iter
    (fun (name, _, _) ->
      let op_stages op_match =
        List.filter_map
          (fun (ti : Timing.tinstr) ->
            if op_match ti.Timing.ti.Instr.op then
              Some stages.(ti.Timing.ti_index)
            else None)
          tm.Timing.instrs
      in
      let lpr_stages =
        op_stages (function Instr.Lpr n -> String.equal n name | _ -> false)
      in
      let snx_stages =
        op_stages (function Instr.Snx n -> String.equal n name | _ -> false)
      in
      match lpr_stages, snx_stages with
      | _, [] | [], _ -> ()
      | ls, ss ->
        List.iter
          (fun l ->
            List.iter
              (fun s ->
                if l <> s then
                  errf
                    "pipeline: feedback %s spans stages %d and %d — the \
                     LPR/SNX loop must fit one stage"
                    name l s)
              ss)
          ls)
    tm.Timing.dp.Graph.proc.Proc.feedbacks

(* ---- slack-based retiming ----
   Slide unpinned instructions across one stage boundary at a time (later
   first — that is where dangling zero-delay producers accumulate latches —
   then earlier), accepting a move only when the total latch bits strictly
   decrease and the worst per-stage delay stays within [budget]. Pinned:
   LPR/SNX instructions and everything on a feedback path. Terminates
   because every accepted move strictly decreases an integer.

   Each trial move of [i] from stage [s] to [s'] is priced as a delta —
   O(users of the registers [i] touches + |stage s'|), not O(netlist) —
   and equals what a full {!Timing.latch_bits} / {!Timing.stage_delays}
   recompute would give:
   - latch bits: only the chains of the registers [i] defines or reads
     change. Each is charged [max 0 (last_use - def) × width], with
     [last_use] its latest consumer's stage ([stage_count] for an output
     port), recomputed before and after the move from its producer and
     consumers;
   - stage delay: only stages [s] and [s'] change members, and no other
     stage gains or loses a same-stage producer. Every other stage is
     already within [budget], which starts as the worst stage delay and
     is only ever checked. Losing a member never lengthens a stage (each
     remaining finish time can only fall), so stage [s] stays within it
     too, and only [s'] is recomputed — by the {!Timing.stage_delays}
     operations, in the same topological order. *)

type reg_charge = {
  rc_width : int;
  rc_def : int;         (* producer's ti_index; -1 = external input *)
  rc_uses : int array;  (* consumers' ti_indexes *)
  rc_out : bool;        (* output port: carried to the final boundary *)
}

let retime_stages (tm : Timing.t) (stages : int array) ~(stage_count : int)
    ~(budget : float) : int =
  let tis = Array.of_list tm.Timing.instrs in
  let n = Array.length tis in
  let pinned = Array.make (Array.length stages) false in
  Array.iter
    (fun (ti : Timing.tinstr) ->
      (* multi-stage regions are pinned: retiming must never move into or
         split them *)
      if ti.Timing.ti_stages > 1 then pinned.(ti.Timing.ti_index) <- true;
      match ti.Timing.ti.Instr.op with
      | Instr.Lpr _ | Instr.Snx _ -> pinned.(ti.Timing.ti_index) <- true
      | _ -> ())
    tis;
  List.iter
    (fun (_, members) ->
      List.iter
        (fun (ti : Timing.tinstr) -> pinned.(ti.Timing.ti_index) <- true)
        members)
    (Timing.feedback_paths tm);
  (* ---- pre-index: producers, register charges, stage members ---- *)
  let producer_of r =
    match Hashtbl.find_opt tm.Timing.producer r with
    | Some p -> p.Timing.ti_index
    | None -> -1
  in
  let outputs = Hashtbl.create 16 in
  List.iter
    (fun (port : Proc.port) -> Hashtbl.replace outputs port.Proc.port_reg ())
    tm.Timing.dp.Graph.output_ports;
  let charges = Hashtbl.create 64 in
  let charge r =
    match Hashtbl.find_opt charges r with
    | Some c -> c
    | None ->
      let uses =
        Option.value (Hashtbl.find_opt tm.Timing.consumers r) ~default:[]
      in
      let c =
        { rc_width = Timing.reg_width tm r;
          rc_def = producer_of r;
          rc_uses =
            Array.of_list
              (List.map (fun (u : Timing.tinstr) -> u.Timing.ti_index) uses);
          rc_out = Hashtbl.mem outputs r }
      in
      Hashtbl.replace charges r c;
      c
  in
  let src_producers =
    Array.map
      (fun (ti : Timing.tinstr) ->
        Array.of_list (List.map producer_of ti.Timing.ti.Instr.srcs))
      tis
  in
  let dst_uses =
    Array.map
      (fun (ti : Timing.tinstr) ->
        match ti.Timing.ti.Instr.dst with
        | Some d -> (charge d).rc_uses
        | None -> [||])
      tis
  in
  (* the registers whose chains a move of the instruction can change *)
  let touched =
    Array.map
      (fun (ti : Timing.tinstr) ->
        let i = ti.Timing.ti in
        let regs = Option.to_list i.Instr.dst @ i.Instr.srcs in
        Array.of_list (List.map charge (List.sort_uniq compare regs)))
      tis
  in
  let members = Array.make (max 1 stage_count) [] in
  let last_stage = Array.length members - 1 in
  for idx = n - 1 downto 0 do
    let s = stages.(idx) in
    for j = max 0 s to min (s + tis.(idx).Timing.ti_stages - 1) last_stage do
      members.(j) <- idx :: members.(j)
    done
  done;
  (* ---- delta pricing ---- *)
  let charge_bits c =
    let def = if c.rc_def < 0 then 0 else stages.(c.rc_def) in
    let last =
      if c.rc_out then stage_count
      else Array.fold_left (fun acc u -> max acc stages.(u)) (-1) c.rc_uses
    in
    max 0 (last - def) * c.rc_width
  in
  let touched_bits idx =
    Array.fold_left (fun acc c -> acc + charge_bits c) 0 touched.(idx)
  in
  (* members are visited in topological order, so a same-stage producer
     [p < idx] already has its finish time from this visit; a later one
     has none yet and contributes 0.0 *)
  let finish = Array.make n 0.0 in
  let stage_delay j =
    List.fold_left
      (fun delay idx ->
        let ti = tis.(idx) in
        if ti.Timing.ti_stages > 1 then
          if ti.Timing.ti_delay > delay then ti.Timing.ti_delay else delay
        else begin
          let start =
            Array.fold_left
              (fun acc p ->
                if p >= 0 && p < idx
                   && tis.(p).Timing.ti_stages = 1
                   && stages.(p) = j
                then Float.max acc finish.(p)
                else acc)
              0.0 src_producers.(idx)
          in
          let f = start +. ti.Timing.ti_delay in
          finish.(idx) <- f;
          if f > delay then f else delay
        end)
      0.0 members.(j)
  in
  let within_budget j = stage_delay j <= budget +. 1e-9 in
  let rec insert idx = function
    | m :: rest when m < idx -> m :: insert idx rest
    | l -> idx :: l
  in
  let stage_of (ti : Timing.tinstr) = stages.(ti.Timing.ti_index) in
  let current = ref (Timing.latch_bits tm ~stage_of ~stage_count) in
  let moves = ref 0 in
  let try_move idx (delta : int) : bool =
    if pinned.(idx) then false
    else begin
      let s = stages.(idx) in
      let s' = s + delta in
      if s' < 0 || s' >= stage_count then false
      else begin
        let valid =
          if delta > 0 then
            (* push later: every consumer must still be reachable — at s'
               or later, strictly later for staged consumers (their
               operands are latched at the region entry boundary) *)
            Array.for_all
              (fun c ->
                stages.(c)
                >= s' + if tis.(c).Timing.ti_stages > 1 then 1 else 0)
              dst_uses.(idx)
          else
            (* pull earlier: every producer's value must be available at
               s' — single-cycle producers at s' or earlier, multi-stage
               regions fully retired (external operands are available from
               stage 0) *)
            Array.for_all
              (fun p -> p < 0 || stages.(p) + Timing.region_span tis.(p) <= s')
              src_producers.(idx)
        in
        if not valid then false
        else begin
          let before = touched_bits idx in
          stages.(idx) <- s';
          let bits = !current - before + touched_bits idx in
          let old_s' = members.(s') in
          if bits < !current
             && begin
               members.(s') <- insert idx old_s';
               within_budget s'
             end
          then begin
            members.(s) <- List.filter (fun m -> m <> idx) members.(s);
            current := bits;
            incr moves;
            true
          end
          else begin
            stages.(idx) <- s;
            members.(s') <- old_s';
            false
          end
        end
      end
    end
  in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < 64 do
    improved := false;
    incr rounds;
    for idx = n - 1 downto 0 do
      if try_move idx 1 then improved := true
    done;
    for idx = 0 to n - 1 do
      if try_move idx (-1) then improved := true
    done
  done;
  !moves

let finalize (tm : Timing.t) (stages : int array) ~(stage_count : int)
    ~(greedy_latch_bits : int) ~(retime_moves : int) : t =
  let stage_of (ti : Timing.tinstr) = stages.(ti.Timing.ti_index) in
  let instrs =
    List.map
      (fun (ti : Timing.tinstr) ->
        { si = ti.Timing.ti;
          si_node = ti.Timing.ti_node;
          stage = stage_of ti;
          si_delay = ti.Timing.ti_delay;
          si_stages = ti.Timing.ti_stages })
      tm.Timing.instrs
  in
  let stage_delays = Timing.stage_delays tm ~stage_of ~stage_count in
  let worst = Array.fold_left Float.max 0.0 stage_delays in
  let clock_mhz = Delay.clock_mhz_of_stage_delay worst in
  let latch_bits = Timing.latch_bits tm ~stage_of ~stage_count in
  let feedback_bits = Timing.feedback_bits tm in
  let def_stage : (Instr.vreg, int) Hashtbl.t = Hashtbl.create 64 in
  let instr_stage : (Instr.instr, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun si ->
      Hashtbl.replace instr_stage si.si si.stage;
      match si.si.Instr.dst with
      | Some d -> Hashtbl.replace def_stage d si.stage
      | None -> ())
    instrs;
  { dp = tm.Timing.dp;
    widths = tm.Timing.widths;
    timing = tm;
    instrs;
    stage_count;
    stage_delays;
    clock_mhz;
    latch_bits;
    greedy_latch_bits;
    retime_moves;
    feedback_bits;
    target_ns = tm.Timing.target_ns;
    def_stage;
    instr_stage }

let build ?(target_ns = default_target_ns) ?stage_budget ?decomp
    ?(retime = true) (dp : Graph.t) (widths : Widths.t) : t =
  let tm = Timing.build ~target_ns ?stage_budget ?decomp dp widths in
  let n = List.length tm.Timing.instrs in
  let stages = Array.make (max 1 n) 0 in
  (* ---- pass 1: the ASAP levels of the timed netlist ---- *)
  List.iter
    (fun (ti : Timing.tinstr) -> stages.(ti.Timing.ti_index) <- ti.Timing.asap)
    tm.Timing.instrs;
  let stage_of (ti : Timing.tinstr) = stages.(ti.Timing.ti_index) in
  (* ---- pass 2: feedback paths collapse onto one stage ---- *)
  List.iter
    (fun (name, members) ->
      List.iter
        (fun (ti : Timing.tinstr) ->
          if ti.Timing.ti_stages > 1 then
            errf
              "pipeline: feedback %s runs through a %d-stage operator — a \
               multi-stage region cannot fit the single-stage LPR/SNX loop"
              name ti.Timing.ti_stages)
        members;
      let s_star =
        List.fold_left (fun acc ti -> max acc (stage_of ti)) 0 members
      in
      List.iter
        (fun (ti : Timing.tinstr) -> stages.(ti.Timing.ti_index) <- s_star)
        members)
    (Timing.feedback_paths tm);
  (* ---- pass 3: forward monotonicity fixup ---- *)
  List.iter
    (fun (ti : Timing.tinstr) ->
      match ti.Timing.ti.Instr.op with
      | Instr.Lpr _ -> ()  (* reads the previous iteration's register *)
      | _ ->
        let entry = if ti.Timing.ti_stages > 1 then 1 else 0 in
        let m =
          List.fold_left
            (fun acc r ->
              match Hashtbl.find_opt tm.Timing.producer r with
              | Some p ->
                (* past the producer's region; staged consumers one
                   boundary further (operands latched at entry) *)
                max acc
                  (stage_of p
                  + max (Timing.region_span p) entry)
              | None -> acc)
            (stage_of ti) ti.Timing.ti.Instr.srcs
        in
        stages.(ti.Timing.ti_index) <- m)
    tm.Timing.instrs;
  check_feedback_stages tm stages;
  let stage_count = stage_count_of tm stages in
  let greedy_latch_bits = Timing.latch_bits tm ~stage_of ~stage_count in
  let retime_moves =
    if retime then
      let budget =
        Array.fold_left Float.max 0.0
          (Timing.stage_delays tm ~stage_of ~stage_count)
      in
      retime_stages tm stages ~stage_count ~budget
    else 0
  in
  finalize tm stages ~stage_count ~greedy_latch_bits ~retime_moves

(** Retime an already-staged pipeline in place of its stage assignment:
    slide latches across low-fanout instructions until latch bits reach a
    local minimum, never exceeding the pipeline's current worst stage
    delay. Idempotent once a fixpoint is reached. *)
let retime (p : t) : t =
  let tm = p.timing in
  let stages = Array.make (max 1 (List.length p.instrs)) 0 in
  List.iteri (fun idx si -> stages.(idx) <- si.stage) p.instrs;
  let stage_of (ti : Timing.tinstr) = stages.(ti.Timing.ti_index) in
  let budget =
    Array.fold_left Float.max 0.0
      (Timing.stage_delays tm ~stage_of ~stage_count:p.stage_count)
  in
  let moves = retime_stages tm stages ~stage_count:p.stage_count ~budget in
  finalize tm stages ~stage_count:p.stage_count
    ~greedy_latch_bits:p.greedy_latch_bits
    ~retime_moves:(p.retime_moves + moves)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let describe (p : t) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "pipeline %s: %d stage(s), clock %.1f MHz, %d latch bits, %d feedback \
        bits\n"
       p.dp.Graph.proc.Proc.pname p.stage_count p.clock_mhz p.latch_bits
       p.feedback_bits);
  if p.retime_moves > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  retiming: %d move(s), %d -> %d latch bits\n"
         p.retime_moves p.greedy_latch_bits p.latch_bits);
  List.iter
    (fun (i, start, k) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  pinned region: %s over stages %d..%d (%d stages)\n"
           (Instr.opcode_name i.Instr.op) start (start + k - 1) k))
    (staged_regions p);
  Array.iteri
    (fun s d ->
      let count = List.length (List.filter (fun si -> si.stage = s) p.instrs) in
      Buffer.add_string buf
        (Printf.sprintf "  stage %d: %d instr(s), %.2f ns\n" s count d))
    p.stage_delays;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Well-formedness                                                     *)
(* ------------------------------------------------------------------ *)

(** Invariants of a staged pipeline: every data-path instruction is staged
    exactly once, stages lie in [0, stage_count), dataflow is forward
    (a producer's stage never exceeds its consumer's, LPRs excepted — they
    read the previous iteration), each feedback's LPR/SNX pair shares one
    stage, and the recorded latch/feedback bit counts balance against an
    independent recomputation from the stage assignment. Raises {!Error}. *)
let verify (p : t) : unit =
  let n_staged = List.length p.instrs in
  let n_graph = Graph.instr_count p.dp in
  if n_staged <> n_graph then
    errf "pipeline: %d staged instruction(s) but the data path has %d"
      n_staged n_graph;
  if Array.length p.stage_delays <> p.stage_count then
    errf "pipeline: %d stage delay(s) for %d stage(s)"
      (Array.length p.stage_delays) p.stage_count;
  List.iter
    (fun si ->
      if si.stage < 0 || si.stage >= p.stage_count then
        errf "pipeline: instruction staged at %d outside [0,%d)" si.stage
          p.stage_count;
      if si.si_stages > 1 && si.stage + si.si_stages > p.stage_count then
        errf
          "pipeline: %d-stage region starting at %d overruns the %d-stage \
           schedule"
          si.si_stages si.stage p.stage_count)
    p.instrs;
  let producer : (Instr.vreg, staged_instr) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun si ->
      match si.si.Instr.dst with
      | Some d -> Hashtbl.replace producer d si
      | None -> ())
    p.instrs;
  List.iter
    (fun si ->
      match si.si.Instr.op with
      | Instr.Lpr _ -> ()  (* reads the feedback register, not a wire *)
      | _ ->
        List.iter
          (fun r ->
            match Hashtbl.find_opt producer r with
            | Some prod ->
              (* earliest stage this consumer may occupy: a multi-stage
                 producer's result exists only past its region exit
                 register; a multi-stage consumer latches its operands at
                 the region entry boundary, so single-cycle producers must
                 finish a stage earlier *)
              let min_stage =
                if prod.si_stages > 1 then prod.stage + prod.si_stages
                else prod.stage + if si.si_stages > 1 then 1 else 0
              in
              if si.stage < min_stage then
                if prod.si_stages > 1 then
                  errf
                    "pipeline: value v%d consumed at stage %d inside or \
                     before its producer's pinned region (stages %d..%d)"
                    r si.stage prod.stage
                    (prod.stage + prod.si_stages - 1)
                else
                  errf
                    "pipeline: value v%d produced at stage %d but consumed \
                     at stage %d"
                    r prod.stage si.stage
            | None -> ())
          si.si.Instr.srcs)
    p.instrs;
  List.iter
    (fun (name, _, _) ->
      let stages op_match =
        List.filter_map
          (fun si ->
            match si.si.Instr.op with
            | op when op_match op -> Some si.stage
            | _ -> None)
          p.instrs
      in
      let lpr_stages =
        stages (function Instr.Lpr n -> String.equal n name | _ -> false)
      in
      let snx_stages =
        stages (function Instr.Snx n -> String.equal n name | _ -> false)
      in
      match lpr_stages, snx_stages with
      | _, [] | [], _ -> ()
      | ls, ss ->
        List.iter
          (fun l ->
            List.iter
              (fun s ->
                if l <> s then
                  errf "pipeline: feedback %s latched across stages %d and %d"
                    name l s)
              ss)
          ls)
    p.dp.Graph.proc.Proc.feedbacks;
  (* latch balance: recompute register crossings from the stage assignment *)
  let last_use : (Instr.vreg, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun si ->
      List.iter
        (fun r ->
          let cur = Option.value (Hashtbl.find_opt last_use r) ~default:(-1) in
          if si.stage > cur then Hashtbl.replace last_use r si.stage)
        si.si.Instr.srcs)
    p.instrs;
  List.iter
    (fun (port : Proc.port) ->
      Hashtbl.replace last_use port.Proc.port_reg p.stage_count)
    p.dp.Graph.output_ports;
  let latch_bits =
    Hashtbl.fold
      (fun r use_stage acc ->
        let def_stage =
          match Hashtbl.find_opt producer r with
          | Some prod -> prod.stage
          | None -> 0
        in
        let crossings = max 0 (use_stage - def_stage) in
        acc + (crossings * (try Widths.width p.widths r with _ -> 32)))
      last_use 0
  in
  if latch_bits <> p.latch_bits then
    errf "pipeline: latch bits out of balance — recorded %d, stages imply %d"
      p.latch_bits latch_bits;
  let feedback_bits =
    List.fold_left
      (fun acc (_, kind, _) -> acc + kind.Roccc_cfront.Ast.bits)
      0 p.dp.Graph.proc.Proc.feedbacks
  in
  if feedback_bits <> p.feedback_bits then
    errf "pipeline: feedback bits out of balance — recorded %d, expected %d"
      p.feedback_bits feedback_bits
