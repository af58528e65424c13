(* Reference retimer for equivalence tests: the slack-based retiming loop
   that prices every trial move with a full {!Timing.latch_bits} and
   {!Timing.stage_delays} recompute over the whole netlist — O(netlist)
   per trial. {!Pipeline.retime} prices the same moves as deltas and must
   accept and reject exactly the moves this one does. *)

module Instr = Roccc_vm.Instr
module Timing = Roccc_datapath.Timing
module Pipeline = Roccc_datapath.Pipeline

(* Slide unpinned instructions across one stage boundary at a time (later
   first, then earlier), accepting a move only when the total latch bits
   strictly decrease and the worst per-stage delay stays within [budget].
   Pinned: multi-stage regions, LPR/SNX instructions and everything on a
   feedback path. *)
let retime_stages (tm : Timing.t) (stages : int array) ~(stage_count : int)
    ~(budget : float) : int =
  let pinned = Array.make (Array.length stages) false in
  List.iter
    (fun (ti : Timing.tinstr) ->
      (* multi-stage regions are pinned: retiming must never move into or
         split them *)
      if ti.Timing.ti_stages > 1 then pinned.(ti.Timing.ti_index) <- true;
      match ti.Timing.ti.Instr.op with
      | Instr.Lpr _ | Instr.Snx _ -> pinned.(ti.Timing.ti_index) <- true
      | _ -> ())
    tm.Timing.instrs;
  List.iter
    (fun (_, members) ->
      List.iter
        (fun (ti : Timing.tinstr) -> pinned.(ti.Timing.ti_index) <- true)
        members)
    (Timing.feedback_paths tm);
  let stage_of (ti : Timing.tinstr) = stages.(ti.Timing.ti_index) in
  let current = ref (Timing.latch_bits tm ~stage_of ~stage_count) in
  let moves = ref 0 in
  let try_move (ti : Timing.tinstr) (delta : int) : bool =
    let idx = ti.Timing.ti_index in
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
            (match ti.Timing.ti.Instr.dst with
            | Some d ->
              List.for_all
                (fun (c : Timing.tinstr) ->
                  stage_of c
                  >= s' + if c.Timing.ti_stages > 1 then 1 else 0)
                (Option.value
                   (Hashtbl.find_opt tm.Timing.consumers d)
                   ~default:[])
            | None -> true)
          else
            (* pull earlier: every producer's value must be available at
               s' — single-cycle producers at s' or earlier, multi-stage
               regions fully retired (external operands are available from
               stage 0) *)
            List.for_all
              (fun r ->
                match Hashtbl.find_opt tm.Timing.producer r with
                | Some p -> stage_of p + Timing.region_span p <= s'
                | None -> true)
              ti.Timing.ti.Instr.srcs
        in
        if not valid then false
        else begin
          stages.(idx) <- s';
          let bits = Timing.latch_bits tm ~stage_of ~stage_count in
          let worst =
            Array.fold_left Float.max 0.0
              (Timing.stage_delays tm ~stage_of ~stage_count)
          in
          if bits < !current && worst <= budget +. 1e-9 then begin
            current := bits;
            incr moves;
            true
          end
          else begin
            stages.(idx) <- s;
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
    List.iter
      (fun ti -> if try_move ti 1 then improved := true)
      (List.rev tm.Timing.instrs);
    List.iter (fun ti -> if try_move ti (-1) then improved := true)
      tm.Timing.instrs
  done;
  !moves


type result = {
  stages : int list;  (** per instruction, topological order *)
  moves : int;
  latch_bits : int;
  stage_delays : float array;
}

(* Retime an already-staged pipeline, as {!Pipeline.retime} does. *)
let retime (p : Pipeline.t) : result =
  let tm = p.Pipeline.timing in
  let stage_count = p.Pipeline.stage_count in
  let stages = Array.make (max 1 (List.length p.Pipeline.instrs)) 0 in
  List.iteri
    (fun idx (si : Pipeline.staged_instr) -> stages.(idx) <- si.Pipeline.stage)
    p.Pipeline.instrs;
  let stage_of (ti : Timing.tinstr) = stages.(ti.Timing.ti_index) in
  let budget =
    Array.fold_left Float.max 0.0
      (Timing.stage_delays tm ~stage_of ~stage_count)
  in
  let moves = retime_stages tm stages ~stage_count ~budget in
  { stages = List.map stage_of tm.Timing.instrs;
    moves = p.Pipeline.retime_moves + moves;
    latch_bits = Timing.latch_bits tm ~stage_of ~stage_count;
    stage_delays = Timing.stage_delays tm ~stage_of ~stage_count }

(* Where {!Pipeline.retime} and the oracle disagree on the greedy staging
   of [dp] ([] = identical stages, moves, latch bits and bit-identical
   stage delays). *)
let mismatches ?target_ns ?stage_budget ?decomp dp widths : string list =
  let greedy =
    Pipeline.build ?target_ns ?stage_budget ?decomp ~retime:false dp widths
  in
  let want = retime greedy in
  let got = Pipeline.retime greedy in
  let got_stages =
    List.map (fun (si : Pipeline.staged_instr) -> si.Pipeline.stage)
      got.Pipeline.instrs
  in
  let same_floats a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun x y ->
           Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         a b
  in
  List.filter_map Fun.id
    [ (if got_stages = want.stages then None else Some "stage assignment");
      (if got.Pipeline.retime_moves = want.moves then None
       else
         Some
           (Printf.sprintf "retime_moves %d, oracle %d"
              got.Pipeline.retime_moves want.moves));
      (if got.Pipeline.latch_bits = want.latch_bits then None
       else
         Some
           (Printf.sprintf "latch_bits %d, oracle %d" got.Pipeline.latch_bits
              want.latch_bits));
      (if same_floats got.Pipeline.stage_delays want.stage_delays then None
       else Some "stage_delays") ]
