(* Regenerate the test/golden IR dump files:
     dune exec tools/gen_golden.exe -- test/golden
   Run from the repository root after an intentional IR or printer change,
   then review the diff. *)

module Pass = Roccc_core.Pass
module Driver = Roccc_core.Driver
module Kernels = Roccc_core.Kernels

let dump_passes =
  [ "parse"; "constant-fold"; "lower-to-suifvm"; "datapath-build";
    "pipelining"; "retiming" ]

let write dir file text =
  let path = Filename.concat dir file in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length text)

(* The last dump per pass name, in [passes] order. *)
let dumps_of passes (b : Kernels.benchmark) =
  let dumps = ref [] in
  let config =
    { (Pass.default_config ()) with
      Pass.dump_after = passes;
      on_dump = (fun name text -> dumps := !dumps @ [ name, text ]) }
  in
  let (_ : Driver.compiled) =
    Driver.compile ~config
      ~options:(b.Kernels.tune Driver.default_options)
      ~luts:b.Kernels.luts ~entry:b.Kernels.entry b.Kernels.source
  in
  List.map
    (fun name ->
      match List.rev (List.filter (fun (n, _) -> n = name) !dumps) with
      | (_, text) :: _ -> name, text
      | [] -> failwith ("no dump for " ^ name))
    passes

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  List.iter
    (fun (name, text) -> write dir (Printf.sprintf "fir.%s.txt" name) text)
    (dumps_of dump_passes Kernels.fir);
  (* the busiest retimer run of the gallery *)
  List.iter
    (fun (name, text) ->
      write dir (Printf.sprintf "square_root.%s.txt" name) text)
    (dumps_of [ "retiming" ] Kernels.square_root);
  (* the process-network plan for the two-kernel gallery pipeline *)
  let module Net = Roccc_net.Net in
  let quiet =
    { (Pass.default_config ()) with Pass.on_dump = (fun _ _ -> ()) }
  in
  let net =
    Net.plan ~config:quiet ~name:Net.gallery_pipeline Net.gallery_source
  in
  write dir "stream.net.txt" (Net.describe net)
