(* Run the benchmark's self-tests: dune exec perfbench/selftest.exe *)

let () =
  let all = Checks.all () in
  List.iter (fun (name, ok) -> Printf.printf "%s  %s\n" (if ok then "ok  " else "FAIL") name) all;
  let failed = List.length (Checks.failures ()) in
  Printf.printf "%d checks, %d failed\n" (List.length all) failed;
  exit (if failed = 0 then 0 else 1)
