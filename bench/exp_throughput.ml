(* Throughput microbenchmark: simulated MIPS per workload x mode.

   Unlike the paper-reproduction experiments, this one measures the
   *simulator itself*: how many simulated instructions per host second
   the engine retires on each workload.  It exists so interpreter and
   superblock-compiler speedups (and regressions) show up in the
   recorded bench trajectory (BENCH_throughput.json) instead of only in
   anecdotes.

   Every cell is measured twice — once with the superblock compiler
   live (the default engine) and once pinned to the pure interpreter
   (--no-superblocks) — so the JSON records the speedup ratio on the
   same host, same process, same inputs.  Three verdicts are exact and
   CI-gated:

   - [fast_path_consistent]: the memory/taint fast paths produce
     counters identical to the byte-at-a-time reference paths;
   - [superblock_consistent]: a superblock run's full report is
     byte-identical to the interpreter run's (the compiler is a pure
     optimisation);
   - [superblock_speedup_ok]: the geometric-mean speedup over the grid
     clears the floor below.  The ratio of two wall-clocks on one host
     is host-independent enough to gate on, unlike the MIPS columns;
   - [alloc_budget_ok]: every cell, under both engines, allocates at
     most [alloc_budget] minor-heap words per simulated instruction
     while it runs.  The count is deterministic, so this gates with no
     timing noise. *)

open Common
module J = Shift.Results
module Stats = Shift_machine.Stats
module Memory = Shift_mem.Memory

let kernels = List.filter_map Spec.find [ "gzip"; "gcc"; "mcf"; "bzip2" ]
let modes = [ ("uninstr", Mode.Uninstrumented); ("word", word); ("byte", byte) ]

(* the CI floor on the geometric-mean superblock speedup; measured
   ~1.5-1.6x on the grid (see EXPERIMENTS.md) — the on/off ratio
   understates the compiler because shared wins (the cache set mask,
   the memory fast paths) speed the interpreter column too.  The floor
   only catches the compiler being disabled or badly regressed. *)
let speedup_floor = 1.3

(* the CI ceiling on minor-heap words per simulated instruction: the
   engines keep register values unboxed, so what remains is syscall and
   bookkeeping work (measured <= 0.02 on the grid, see EXPERIMENTS.md) *)
let alloc_budget = 0.2

(* smoke kernels for the differential fast-vs-reference check *)
let smoke = List.filter_map Spec.find [ "gzip"; "mcf" ]

let fresh_run ?(superblocks = true) k mode =
  (* bypass the kernel memo: we time the run, so it must be fresh *)
  let image = image_of_kernel k mode in
  let config =
    Shift.Session.Config.make ~policy:Policy.default ~fuel
      ~setup:(Spec.setup ~tainted:true k) ~superblocks ()
  in
  let t0 = Unix.gettimeofday () in
  let live = Shift.Session.start ~config image in
  let w0 = Gc.minor_words () in
  (match Shift.Session.advance live ~budget:max_int with
  | `Finished _ | `Yielded -> ());
  let words = Gc.minor_words () -. w0 in
  let wall = Unix.gettimeofday () -. t0 in
  let report = Shift.Session.report live in
  let per_instr =
    words /. float_of_int (max 1 report.Shift.Report.stats.Stats.instructions)
  in
  (report, Shift.Session.superblock_stats live, wall, per_instr)

let mips (stats : Stats.t) wall =
  if wall <= 0. then 0. else float_of_int stats.Stats.instructions /. wall /. 1e6

let counters (s : Stats.t) =
  (s.Stats.instructions, s.Stats.cycles, s.Stats.loads, s.Stats.stores)

let stats_json (s : Stats.t) =
  J.Obj
    [
      ("instructions", J.Int s.Stats.instructions);
      ("cycles", J.Int s.Stats.cycles);
      ("loads", J.Int s.Stats.loads);
      ("stores", J.Int s.Stats.stores);
    ]

let sb_json (sb : Stats.superblocks) =
  J.Obj
    [
      ("compiled", J.Int sb.Stats.sb_compiled);
      ("hits", J.Int sb.Stats.sb_hits);
      ("misses", J.Int sb.Stats.sb_misses);
      ("invalidations", J.Int sb.Stats.sb_invalidations);
      ("fallback", J.Int sb.Stats.sb_fallback);
    ]

let report_bytes r = J.to_string (J.of_report r)

type run = {
  kname : string;
  mode_name : string;
  report : Shift.Report.t;  (* the superblock run's *)
  sb : Stats.superblocks;
  wall : float;  (* superblocks on *)
  interp_wall : float;  (* superblocks off *)
  words : float;  (* minor words per instruction, superblocks on *)
  interp_words : float;  (* ... and off *)
  identical : bool;  (* full reports byte-identical on vs off *)
}

let speedup r = if r.wall <= 0. then 0. else r.interp_wall /. r.wall

let geomean = function
  | [] -> 0.
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log (max x 1e-9)) 0. xs
        /. float_of_int (List.length xs))

let throughput () =
  header "Throughput: simulated MIPS per workload x mode (host-dependent)";
  let runs =
    List.concat_map
      (fun k ->
        List.map
          (fun (mode_name, mode) ->
            let report, sb, wall, words = fresh_run k mode in
            let interp_report, _, interp_wall, interp_words =
              fresh_run ~superblocks:false k mode
            in
            {
              kname = k.Spec.name;
              mode_name;
              report;
              sb;
              wall;
              interp_wall;
              words;
              interp_words;
              identical = report_bytes report = report_bytes interp_report;
            })
          modes)
      kernels
  in
  table
    ~columns:
      [
        "kernel"; "mode"; "instructions"; "sim MIPS"; "interp MIPS"; "speedup";
        "words/instr"; "report";
      ]
    (List.map
       (fun r ->
         let s = r.report.Shift.Report.stats in
         [
           r.kname;
           r.mode_name;
           string_of_int s.Stats.instructions;
           Printf.sprintf "%.2f" (mips s r.wall);
           Printf.sprintf "%.2f" (mips s r.interp_wall);
           Printf.sprintf "%.2fx" (speedup r);
           Printf.sprintf "%.3f/%.3f" r.words r.interp_words;
           (if r.identical then "identical" else "MISMATCH");
         ])
       runs);
  note "simulated MIPS = simulated instructions / host wall-clock; like the";
  note "bechamel suite this experiment is serial and its timing columns are";
  note "host-dependent.  The simulated counters are exactly reproducible,";
  note "and the speedup column is a same-host ratio.";
  let sb_identical = List.for_all (fun r -> r.identical) runs in
  let mean_speedup = geomean (List.map speedup runs) in
  note "superblocks vs interpreter: reports %s, geomean speedup %.2fx (floor %.1fx)"
    (if sb_identical then "identical" else "MISMATCH")
    mean_speedup speedup_floor;
  let alloc_ok =
    List.for_all (fun r -> r.words <= alloc_budget && r.interp_words <= alloc_budget) runs
  in
  note "words/instr = minor-heap words allocated per simulated instruction";
  note "(superblocks/interpreter), deterministic: %s the %.1f budget"
    (if alloc_ok then "every cell within" else "OVER") alloc_budget;
  (* differential check: fast paths vs the byte-at-a-time reference *)
  let consistency =
    List.concat_map
      (fun k ->
        List.map
          (fun (mode_name, mode) ->
            let was = !Memory.fast_path in
            let fast, refr =
              Fun.protect
                ~finally:(fun () -> Memory.fast_path := was)
                (fun () ->
                  Memory.fast_path := true;
                  let fast, _, _, _ = fresh_run k mode in
                  Memory.fast_path := false;
                  let refr, _, _, _ = fresh_run k mode in
                  (fast.Shift.Report.stats, refr.Shift.Report.stats))
            in
            let ok = counters fast = counters refr in
            (k.Spec.name, mode_name, fast, refr, ok))
          [ ("word", word); ("byte", byte) ])
      smoke
  in
  let all_ok = List.for_all (fun (_, _, _, _, ok) -> ok) consistency in
  List.iter
    (fun (kname, mode_name, fast, refr, ok) ->
      if not ok then begin
        let fi, fc, fl, fs = counters fast and ri, rc, rl, rs = counters refr in
        note
          "CONSISTENCY FAILURE %s/%s: fast %d instrs %d cycles %d loads %d \
           stores vs reference %d/%d/%d/%d"
          kname mode_name fi fc fl fs ri rc rl rs
      end)
    consistency;
  note "fast-path consistency on smoke kernels: %s"
    (if all_ok then "ok" else "MISMATCH");
  J.Obj
    [
      ( "runs",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("kernel", J.String r.kname);
                   ("mode", J.String r.mode_name);
                   ("stats", stats_json r.report.Shift.Report.stats);
                   ("wall_s", J.Float r.wall);
                   ("sim_mips", J.Float (mips r.report.Shift.Report.stats r.wall));
                   ("interp_wall_s", J.Float r.interp_wall);
                   ( "interp_mips",
                     J.Float (mips r.report.Shift.Report.stats r.interp_wall) );
                   ("superblock_speedup", J.Float (speedup r));
                   ("alloc_words_per_instr", J.Float r.words);
                   ("interp_alloc_words_per_instr", J.Float r.interp_words);
                   ("superblocks", sb_json r.sb);
                   ("report_identical", J.Bool r.identical);
                 ])
             runs) );
      ( "consistency",
        J.List
          (List.map
             (fun (kname, mode_name, fast, refr, ok) ->
               J.Obj
                 [
                   ("kernel", J.String kname);
                   ("mode", J.String mode_name);
                   ("ok", J.Bool ok);
                   ("fast", stats_json fast);
                   ("reference", stats_json refr);
                 ])
             consistency) );
      ("fast_path_consistent", J.Bool all_ok);
      ("superblock_consistent", J.Bool sb_identical);
      ("superblock_geomean_speedup", J.Float mean_speedup);
      ("superblock_speedup_ok", J.Bool (sb_identical && mean_speedup >= speedup_floor));
      ("alloc_budget", J.Float alloc_budget);
      ("alloc_budget_ok", J.Bool alloc_ok);
    ]
