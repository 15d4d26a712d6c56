(* Timed wrappers around the public session API, shared by the
   in-process workloads.  Every call into a layer goes through a span
   (free when tracing is off); the engine is advanced in fixed slices
   whose host time and minor-heap allocation are accumulated here. *)

module S = Shift.Session
module J = Shift.Results
module Stats = Shift_machine.Stats

(* the serve daemon's default slice: the unit an engine holds a domain
   for, and the spec-solo operation whose latency is reported *)
let slice = 50_000

type engine_acc = {
  mutable instrs : int;
  mutable seconds : float;
  mutable words : float;
  mutable slices : float list;  (** host seconds of each full slice *)
}

let engine_acc () = { instrs = 0; seconds = 0.; words = 0.; slices = [] }

let merge a b =
  {
    instrs = a.instrs + b.instrs;
    seconds = a.seconds +. b.seconds;
    words = a.words +. b.words;
    slices = a.slices @ b.slices;
  }

let compile ~mode program =
  Tracer.span "compiler" (fun () -> S.build ~mode program)

(* Set-up time.  One sample times [batch] back-to-back calls of
   [compile] and keeps the time per call.  A run takes a few samples at
   its start and more between its units of work, and reports the median
   of all: host speed on a shared machine drifts within seconds, and a
   burst of samples at the start would measure only one moment of it. *)
type 'a setup = { compile : unit -> 'a; batch : int; mutable samples : float list }

let setup_sample s =
  let t0 = Util.now () in
  let r = ref (s.compile ()) in
  for _ = 2 to s.batch do
    r := s.compile ()
  done;
  s.samples <- ((Util.now () -. t0) /. float s.batch) :: s.samples;
  !r

let setup ~reps ~batch compile =
  let s = { compile; batch; samples = [] } in
  let images = ref (setup_sample s) in
  for _ = 2 to reps do
    images := setup_sample s
  done;
  (s, !images)

let setup_s s = Util.median s.samples

let start ~config image = Tracer.span "session.start" (fun () -> S.start ~config image)

(* advance [live] in [slice]-instruction steps until it finishes or has
   run [limit] more instructions; true when the session finished *)
let advance ?(limit = max_int) acc live =
  let before = S.fuel_left live in
  let rec go () =
    let ran = before - S.fuel_left live in
    if ran >= limit then false
    else begin
      let budget = min slice (limit - ran) in
      let f0 = S.fuel_left live in
      let w0 = Gc.minor_words () in
      let t0 = Util.now () in
      let r = Tracer.span "machine.advance" (fun () -> S.advance live ~budget) in
      let dt = Util.now () -. t0 in
      let w1 = Gc.minor_words () in
      acc.instrs <- acc.instrs + (f0 - S.fuel_left live);
      acc.seconds <- acc.seconds +. dt;
      acc.words <- acc.words +. (w1 -. w0);
      match r with
      | `Yielded ->
          if budget = slice then acc.slices <- dt :: acc.slices;
          go ()
      | `Finished _ -> true
    end
  in
  go ()

(* the session's report, serialised as [--json] prints it *)
let report live =
  let r = Tracer.span "session.report" (fun () -> S.report live) in
  let text =
    Tracer.span "results.encode" (fun () -> J.to_string (J.of_report r))
  in
  (r, text)

let sim_mips acc = float acc.instrs /. acc.seconds /. 1e6
let alloc_per_instr acc = acc.words /. float acc.instrs

(* superblock counters and cache/cycle totals across sessions *)
type sim_acc = {
  sb : Stats.superblocks;
  mutable sim_instrs : int;
  mutable cycles : int;
  mutable hits : int;
  mutable misses : int;
}

let sim_acc () =
  { sb = Stats.sb_create (); sim_instrs = 0; cycles = 0; hits = 0; misses = 0 }

(* the simulated counters of a finished session's report *)
let note_report sim (r : Shift.Report.t) =
  sim.sim_instrs <- sim.sim_instrs + r.Shift.Report.stats.Stats.instructions;
  sim.cycles <- sim.cycles + r.Shift.Report.stats.Stats.cycles;
  sim.hits <- sim.hits + r.Shift.Report.cache_hits;
  sim.misses <- sim.misses + r.Shift.Report.cache_misses

(* ... and the host-side superblock counters of its live session *)
let note_sim sim live r =
  Stats.sb_add ~into:sim.sb (S.superblock_stats live);
  note_report sim r

let set_sim (t : Metrics.table) sim =
  let sb = sim.sb in
  let set = Metrics.set t in
  let lookups = sb.Stats.sb_hits + sb.Stats.sb_misses in
  if lookups > 0 then
    set "superblock.hit_rate" (float sb.Stats.sb_hits /. float lookups);
  if sim.sim_instrs > 0 then
    set "superblock.fallback_frac"
      (float sb.Stats.sb_fallback /. float sim.sim_instrs);
  set "superblock.invalidations" (float sb.Stats.sb_invalidations);
  set "sim.instructions" (float sim.sim_instrs);
  set "sim.cycles" (float sim.cycles);
  let accesses = sim.hits + sim.misses in
  if accesses > 0 then
    set "sim.cache_hit_rate" (float sim.hits /. float accesses)

(* GC counters of this process over a measured phase *)
let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

let set_gc (t : Metrics.table) (minor0, major0) =
  let minor1, major1 = gc_counts () in
  Metrics.set t "gc.minor_collections" (float (minor1 - minor0));
  Metrics.set t "gc.major_collections" (float (major1 - major0))

(* per-layer figures every traced in-process run derives from its spans:
   [root] is the span covering the measured phase *)
let set_span_layers (t : Metrics.table) spans ~root =
  let self = Tracer.self_by_name spans in
  let wall = root.Tracer.stop -. root.Tracer.start in
  let compiles = Tracer.durations spans "compiler" in
  (* compile's share of all time spent inside layers (waiting excluded) *)
  let busy =
    Hashtbl.fold
      (fun name v acc -> if name = root.Tracer.name || name = "idle" then acc else acc +. v)
      self 0.
  in
  if compiles <> [] then begin
    Metrics.set t "compiler.ms_per_image" (1000. *. Util.mean compiles);
    Metrics.set t "compiler.share" (Tracer.self_of self "compiler" /. busy)
  end;
  let starts = Tracer.durations spans "session.start" in
  if starts <> [] then Metrics.set t "session.load_ms" (1000. *. Util.mean starts);
  let encodes = Tracer.durations spans "results.encode" in
  if encodes <> [] then
    Metrics.set t "results.report_encode_us" (1e6 *. Util.mean encodes);
  Metrics.set t "trace.unaccounted_frac" (Tracer.self_of self root.Tracer.name /. wall);
  Metrics.set t "trace.spans" (float (List.length spans))

(* the root span of a measured phase *)
let root_span spans name =
  List.find (fun s -> s.Tracer.name = name && s.Tracer.parent = -1) spans

(* a traced run is checked to be fully accounted: the root's own self
   time (wall not covered by any layer span) stays under this share *)
let max_unaccounted = 0.05

let dump_spans ~workload ~seed spans =
  let dir = ".perfbench-out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed) in
  Tracer.write_jsonl path spans;
  prerr_endline ("perfbench: spans written to " ^ path)
