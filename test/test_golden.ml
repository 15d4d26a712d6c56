(* Golden fixtures: fresh Results JSON of every kernel × mode at the
   small size and of every attack case (benign and exploit) must equal
   the committed files under test/golden/ byte for byte.  Regenerate
   them (only for an intended change of simulated behaviour) with
   [dune exec test/golden/regen.exe -- test/golden]. *)

let read path = In_channel.with_open_bin path In_channel.input_all

(* the first differing line, so a failure names the counter that moved *)
let first_diff expected actual =
  let e = String.split_on_char '\n' expected
  and a = String.split_on_char '\n' actual in
  let rec go i = function
    | x :: xs, y :: ys -> if x = y then go (i + 1) (xs, ys) else Printf.sprintf "line %d: expected %S, got %S" i x y
    | x :: _, [] -> Printf.sprintf "line %d: expected %S, got end of text" i x
    | [], y :: _ -> Printf.sprintf "line %d: expected end of text, got %S" i y
    | [], [] -> "identical"
  in
  go 1 (e, a)

let tests =
  List.map
    (fun (name, run) ->
      Util.tc (name ^ " matches its fixture") (fun () ->
          let expected = read (Filename.concat "golden" (name ^ ".json")) in
          let actual = Golden_runs.render (run ()) in
          if expected <> actual then
            Alcotest.failf "%s differs from golden/%s.json: %s" name name
              (first_diff expected actual)))
    Golden_runs.all

let suites = [ ("golden", tests) ]
