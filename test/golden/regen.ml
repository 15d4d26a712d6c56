(* Rewrite every golden fixture into the directory given as the only
   argument.  Only for an intended change of simulated behaviour: the
   point of the fixtures is that an engine rewrite leaves them as they
   are. *)

let () =
  match Sys.argv with
  | [| _; dir |] ->
      List.iter
        (fun (name, run) ->
          let path = Filename.concat dir (name ^ ".json") in
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (Golden_runs.render (run ())));
          print_endline path)
        Golden_runs.all
  | _ ->
      prerr_endline "usage: regen DIR";
      exit 2
