(* The benchmark entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload and prints, as its last line, one JSON object with
   [correct], [attempted], [failed] and [metrics] (the end-to-end metrics
   untraced, the per-layer metrics traced).  [--golden] prints the
   simulated counters the exactness check compares against. *)

let workloads = [ "spec-solo"; "serve-open"; "checkpoint-resume" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (spec-solo|serve-open|checkpoint-resume) \
     --seed N --seconds S --trace 0|1 | --golden";
  exit 2

(* the unbroken runs every in-process session must reproduce *)
let golden () =
  let module S = Shift.Session in
  let spec =
    List.map
      (fun (kname, mname) ->
        let k = Option.get (Shift_workloads.Spec.find kname) in
        let image = S.build ~mode:(List.assoc mname Gen.modes) k.Shift_workloads.Spec.program in
        ( Spec_solo.golden_key (kname, mname),
          Golden.counters (S.exec ~config:(Spec_solo.config k) image) ))
      Gen.spec_sessions
  in
  let ckpt =
    List.map
      (fun sh ->
        let image =
          S.build ~mode:(Ckpt_resume.mode sh) (Ckpt_resume.kernel sh).Shift_workloads.Spec.program
        in
        ( Ckpt_resume.golden_key sh,
          Golden.counters (S.exec ~config:(Ckpt_resume.config sh) image) ))
      Ckpt_resume.shapes
  in
  Golden.emit (spec @ ckpt)

(* the host and code a result was measured on: core count, OCaml
   version, git commit (when the checkout is a repository) and a digest
   of the sources, which names the code when it is not *)
let fingerprint () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p else [ p ])
  in
  let sources =
    List.concat_map files [ "lib"; "bin"; "perfbench" ]
    |> List.filter (fun p -> not (String.ends_with ~suffix:".pyc" p))
    |> List.map (fun p -> p ^ Digest.file p)
    |> String.concat "" |> Digest.string |> Digest.to_hex
  in
  let commit =
    if not (Sys.file_exists ".git") then "none"
    else
      let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
      let c = try input_line ic with End_of_file -> "none" in
      ignore (Unix.close_process_in ic);
      c
  in
  Shift.Results.(
    to_string ~minify:true
      (Obj
         [
           ("nproc", Int (Domain.recommended_domain_count ()));
           ("ocaml", String Sys.ocaml_version);
           ("commit", String commit);
           ("sources", String sources);
         ]))

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let mode = ref `Run in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--golden" :: rest -> mode := `Golden; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match !mode with
  | `Golden -> golden ()
  | `Run ->
      if
        (not (List.mem !workload workloads))
        || !seed < 0 || !seconds <= 0.
        || not (List.mem !trace [ 0; 1 ])
      then usage ();
      (match Checks.failures () with
      | [] -> ()
      | bad ->
          List.iter (Util.fail "self-test failed: %s") bad;
          exit 3);
      let seed = !seed and seconds = !seconds in
      let tally, metrics =
        match (!workload, !trace) with
        | "spec-solo", 0 -> Spec_solo.untraced ~seed ~seconds
        | "spec-solo", _ -> Spec_solo.traced ~seed ~seconds
        | "checkpoint-resume", 0 -> Ckpt_resume.untraced ~seed ~seconds
        | "checkpoint-resume", _ -> Ckpt_resume.traced ~seed ~seconds
        | "serve-open", 0 -> Serve_open.untraced ~seed ~seconds
        | _ -> Serve_open.traced ~seed ~seconds
      in
      print_endline ("# host " ^ fingerprint ());
      print_endline (Util.result_line tally metrics)
