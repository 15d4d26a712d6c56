(* The exactness anchor: the simulated counters and outcome of every
   in-process session, recorded once in perfbench/golden.json and
   compared on every run.  A session whose counters differ counts as a
   failed operation, so a host-side speed-up that changes simulated
   behaviour cannot pass as a gain. *)

module J = Shift.Results
module Report = Shift.Report
module Stats = Shift_machine.Stats

let path = Filename.concat "perfbench" "golden.json"

let counters (r : Report.t) =
  let s = r.Report.stats in
  J.Obj
    [
      ("instructions", J.Int s.Stats.instructions);
      ("cycles", J.Int s.Stats.cycles);
      ("loads", J.Int s.Stats.loads);
      ("stores", J.Int s.Stats.stores);
      ("cache_hits", J.Int r.Report.cache_hits);
      ("cache_misses", J.Int r.Report.cache_misses);
      ("outcome", J.of_outcome r.Report.outcome);
    ]

let table : (string * J.json) list Lazy.t =
  lazy
    (match J.of_string (Util.read_file path) with
    | Ok (J.Obj fields) -> fields
    | Ok _ | Error _ -> failwith ("malformed " ^ path))

(* [key] names a session shape, e.g. "spec-solo/gzip/word" *)
let matches key (r : Report.t) =
  match List.assoc_opt key (Lazy.force table) with
  | None ->
      Util.fail "no golden counters for %s" key;
      false
  | Some want ->
      let got = counters r in
      let ok = J.to_string ~minify:true got = J.to_string ~minify:true want in
      if not ok then
        Util.fail "%s: counters %s, expected %s" key
          (J.to_string ~minify:true got)
          (J.to_string ~minify:true want);
      ok

let emit entries =
  print_string (J.to_string (J.Obj entries));
  print_newline ()
