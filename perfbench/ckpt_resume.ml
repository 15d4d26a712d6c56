(* checkpoint-resume: crash-safe long runs, writes beside reads.  Three
   session shapes are checkpointed to disk every N instructions (N small
   enough that snapshot work is most of the wall time); every file is
   then loaded, restored and re-checkpointed, and the re-encoding must
   equal the file byte for byte; one checkpoint per session, chosen by
   the seed, is resumed to completion and must reproduce the unbroken
   run's counters.  Encode and decode sit in separate phases, so a codec
   change that speeds one and slows the other shows in the per-layer
   split. *)

module S = Shift.Session
module Spec = Shift_workloads.Spec
module Snap = Shift.Snapshot
module J = Shift.Results

type shape = {
  sname : string;  (** as in {!Metrics.shapes} *)
  kernel : string;
  mname : string;
  traced : bool;  (** Flowtrace on: the snapshot carries ring and provenance *)
  every : int;  (** checkpoint cadence, instructions *)
}

let shapes =
  [
    { sname = "mcf_word"; kernel = "mcf"; mname = "word"; traced = false; every = 1_000_000 };
    { sname = "gzip_byte"; kernel = "gzip"; mname = "byte"; traced = false; every = 250_000 };
    { sname = "traced"; kernel = "parser"; mname = "word"; traced = true; every = 120_000 };
  ]

(* a shape's position in [shapes]: the request id its spans carry *)
let index sh =
  let rec go i = function
    | x :: _ when x.sname = sh.sname -> i
    | _ :: rest -> go (i + 1) rest
    | [] -> invalid_arg "Ckpt_resume.index"
  in
  go 0 shapes

let kernel sh = Option.get (Spec.find sh.kernel)
let mode sh = List.assoc sh.mname Gen.modes

let config sh =
  Spec_solo.config
    ?trace:(if sh.traced then Some Shift.Flowtrace.default_options else None)
    (kernel sh)

let golden_key sh = "checkpoint-resume/" ^ sh.sname

let compile_all () =
  List.map (fun sh -> (sh.sname, Drive.compile ~mode:(mode sh) (kernel sh).Spec.program)) shapes

(* set-up is compiling the 3 images, only 4 to 7 ms, so a sample
   compiles them 8 times; the untraced run takes 5 samples at its start
   and 3 after every round *)
let setup () = Drive.setup ~reps:5 ~batch:8 compile_all
let setup_between_rounds = 3

type acc = {
  eng : (string, Drive.engine_acc) Hashtbl.t;  (** by shape *)
  sim : Drive.sim_acc;
  mutable ops : float list;  (** per file: checkpoint + reload seconds *)
  mutable ckpt_s : float;
  mutable load_s : float;
  mutable kb : (string * float) list;  (** shape, file size *)
  mutable walls : float list;  (** per round *)
  mutable round_mips : float list;
  mutable round_p50 : float list;  (** median operation seconds, per round *)
  mutable rss : float;  (** MB, after the first round *)
}

let acc () =
  let eng = Hashtbl.create 4 in
  List.iter (fun sh -> Hashtbl.replace eng sh.sname (Drive.engine_acc ())) shapes;
  {
    eng;
    sim = Drive.sim_acc ();
    ops = [];
    ckpt_s = 0.;
    load_s = 0.;
    kb = [];
    walls = [];
    round_mips = [];
    round_p50 = [];
    rss = nan;
  }

let engine_total acc =
  Hashtbl.fold (fun _ e a -> Drive.merge e a) acc.eng (Drive.engine_acc ())

let tracing () = !Tracer.enabled
let span = Tracer.span

(* Session.checkpoint + Snapshot.save; traced runs split save into its
   encode and write steps so each is timed on its own *)
let write_checkpoint sh live path =
  let span name f = span ~req:(index sh) name f in
  if not (tracing ()) then Snap.save path (S.checkpoint live)
  else begin
    let snap = span "snapshot.capture" (fun () -> S.checkpoint live) in
    let text = span "snapshot.encode" (fun () -> J.to_string (Snap.to_json snap)) in
    span "snapshot.write" (fun () ->
        let tmp = path ^ ".tmp" in
        let oc = open_out_bin tmp in
        output_string oc text;
        output_char oc '\n';
        close_out oc;
        Sys.rename tmp path)
  end

(* Snapshot.load + Session.restore, likewise split when traced *)
let read_checkpoint sh path =
  let span name f = span ~req:(index sh) name f in
  if not (tracing ()) then
    match Snap.load path with Ok snap -> Ok (S.restore snap) | Error e -> Error e
  else
    let text = span "snapshot.read" (fun () -> Util.read_file path) in
    match span "snapshot.parse" (fun () -> J.of_string text) with
    | Error e -> Error e
    | Ok j -> (
        match span "snapshot.decode" (fun () -> Snap.of_json j) with
        | Error e -> Error e
        | Ok snap -> Ok (span "snapshot.restore" (fun () -> S.restore snap)))

(* a restored session re-checkpoints to exactly the file's bytes *)
let reencodes live path =
  span "verify" (fun () ->
      J.to_string (Snap.to_json (S.checkpoint live)) ^ "\n" = Util.read_file path)

(* one round: each shape's write, read and resume phases in turn *)
let round acc tally images ~dir ~seed ~round_no =
  let t0 = Util.now () in
  let eng0 = engine_total acc and ops0 = List.length acc.ops in
  let eng sh = Hashtbl.find acc.eng sh.sname in
  (* write: run with a checkpoint every [every] instructions *)
  let write sh =
    let live = Drive.start ~config:(config sh) (List.assoc sh.sname images) in
    let rec write_all n files =
      if Drive.advance ~limit:sh.every (eng sh) live then List.rev files
      else begin
        let path = Filename.concat dir (Printf.sprintf "%s-%d.snap.json" sh.sname n) in
        let c0 = Util.now () in
        write_checkpoint sh live path;
        let dt = Util.now () -. c0 in
        acc.ckpt_s <- acc.ckpt_s +. dt;
        write_all (n + 1) ((path, dt) :: files)
      end
    in
    let files = write_all 0 [] in
    let r, _json = Drive.report live in
    span "verify" (fun () ->
        Drive.note_sim acc.sim live r;
        Util.check tally (Golden.matches (golden_key sh) r) (sh.sname ^ " checkpointed run"));
    files
  in
  (* read: every file loads, restores and re-encodes exactly; the
     seed-picked file stays on disk for the resume phase, so what this
     phase holds in memory does not depend on the seed *)
  let read sh files =
    let pick = Gen.resume_pick ~seed ~round:round_no ~shape:(index sh) ~files:(List.length files) in
    let resumed = ref None in
    List.iteri
      (fun i (path, write_s) ->
        let l0 = Util.now () in
        match read_checkpoint sh path with
        | Error e -> Util.check tally false (path ^ ": " ^ e)
        | Ok restored ->
            let dt = Util.now () -. l0 in
            acc.load_s <- acc.load_s +. dt;
            acc.ops <- (write_s +. dt) :: acc.ops;
            acc.kb <- (sh.sname, float (Unix.stat path).Unix.st_size /. 1024.) :: acc.kb;
            Util.check tally (reencodes restored path) (path ^ " re-encodes to its bytes");
            if i = pick then resumed := Some (pick, path) else Sys.remove path)
      files;
    !resumed
  in
  (* resume: the picked checkpoint runs to the unbroken result *)
  let resume sh = function
    | None -> Util.check tally false (sh.sname ^ ": no checkpoint to resume")
    | Some (pick, path) -> (
        let restored = read_checkpoint sh path in
        Sys.remove path;
        match restored with
        | Error e -> Util.check tally false (path ^ ": " ^ e)
        | Ok live ->
            ignore (Drive.advance (eng sh) live);
            let r, _json = Drive.report live in
            span "verify" (fun () ->
                Util.check tally (Golden.matches (golden_key sh) r)
                  (Printf.sprintf "%s resumed from checkpoint %d" sh.sname pick)))
  in
  List.iter (fun sh -> resume sh (read sh (write sh))) shapes;
  (* peak memory of one round, whatever the number of rounds that fit *)
  if acc.walls = [] then acc.rss <- Util.peak_rss_mb "self";
  let wall = Util.now () -. t0 in
  let eng1 = engine_total acc in
  acc.walls <- wall :: acc.walls;
  acc.round_mips <-
    (float (eng1.Drive.instrs - eng0.Drive.instrs)
    /. (eng1.Drive.seconds -. eng0.Drive.seconds)
    /. 1e6)
    :: acc.round_mips;
  acc.round_p50 <-
    Util.median (List.filteri (fun i _ -> i < List.length acc.ops - ops0) acc.ops)
    :: acc.round_p50;
  wall

(* p95 of checkpoint operations needs this many samples *)
let min_ops = Util.samples_needed 0.95

let untraced ~seed ~seconds =
  let tally = Util.tally () in
  let setup, images = setup () in
  let dir = Util.scratch_dir () in
  let acc = acc () in
  let t0 = Util.now () in
  let rec loop round_no =
    ignore (round acc tally images ~dir ~seed ~round_no);
    for _ = 1 to setup_between_rounds do
      ignore (Drive.setup_sample setup)
    done;
    let elapsed = Util.now () -. t0 in
    if elapsed +. Util.mean acc.walls <= seconds || List.length acc.ops < min_ops then
      loop (round_no + 1)
  in
  loop 0;
  Util.rm_rf dir;
  (* MIPS and median operation time per round, the run reporting their
     medians; p95 pools every round, where its 200 samples are *)
  let t = Metrics.table () in
  let set = Metrics.set t in
  set "setup_s" (Drive.setup_s setup);
  set "peak_rss_mb" acc.rss;
  set "sim_mips" (Util.median acc.round_mips);
  set "alloc_words_per_instr" (Drive.alloc_per_instr (engine_total acc));
  set "op_p50_ms" (1000. *. Util.median acc.round_p50);
  (match Util.tail 0.95 acc.ops with
  | Some v -> set "op_p95_ms" (1000. *. v)
  | None -> Util.check tally false "enough checkpoints for p95");
  (tally, Metrics.render_e2e tally t)

let traced ~seed ~seconds:_ =
  let tally = Util.tally () in
  let _, images = setup () in
  let dir = Util.scratch_dir () in
  (* untraced rounds before and after the traced ones: the first traced
     round's extra wall over their mean is the tracing overhead *)
  let plain () = round (acc ()) tally images ~dir ~seed ~round_no:0 in
  let before = plain () in
  let acc = acc () in
  let gc0 = Drive.gc_counts () in
  Tracer.reset ();
  Tracer.enabled := true;
  let first =
    Tracer.span "checkpoint-resume" (fun () ->
        ignore (compile_all ());
        let rec loop round_no first =
          let w = round acc tally images ~dir ~seed ~round_no in
          let first = Option.value first ~default:w in
          if List.length acc.ops < min_ops then loop (round_no + 1) (Some first)
          else first
        in
        loop 1 None)
  in
  Tracer.enabled := false;
  let plain = (before +. plain ()) /. 2. in
  Util.rm_rf dir;
  let t = Metrics.table () in
  let set = Metrics.set t in
  Drive.set_gc t gc0;
  let spans = Tracer.spans () in
  let root = Drive.root_span spans "checkpoint-resume" in
  Drive.set_span_layers t spans ~root;
  Drive.dump_spans ~workload:"checkpoint-resume" ~seed spans;
  set "trace.overhead_frac" ((first -. plain) /. plain);
  let ns name =
    let e = Hashtbl.find acc.eng name in
    1e9 *. e.Drive.seconds /. float e.Drive.instrs
  in
  set "machine.ns_per_instr.word" (ns "mcf_word");
  set "machine.ns_per_instr.byte" (ns "gzip_byte");
  set "flowtrace.ns_per_instr" (ns "traced");
  set "machine.alloc_words_per_instr" (Drive.alloc_per_instr (engine_total acc));
  Drive.set_sim t acc.sim;
  let rounds = float (List.length acc.walls) in
  set "ckpt.ckpt_s" (acc.ckpt_s /. rounds);
  set "ckpt.resume_s" (acc.load_s /. rounds);
  set "ckpt.wall_s" (Util.mean acc.walls);
  List.iter
    (fun s ->
      set ("snapshot.kb." ^ s)
        (Util.mean (List.filter_map (fun (n, kb) -> if n = s then Some kb else None) acc.kb)))
    Metrics.shapes;
  (* snapshot phases: p50 per shape (spans carry the shape's index as
     their request id), p95 pooled over shapes, which is where the
     samples suffice for it *)
  List.iter
    (fun phase ->
      let name = "snapshot." ^ phase in
      List.iter
        (fun sh ->
          let d =
            List.filter_map
              (fun s ->
                if s.Tracer.name = name && s.Tracer.req = index sh then
                  Some (s.Tracer.stop -. s.Tracer.start)
                else None)
              spans
          in
          set (Printf.sprintf "snapshot.%s_ms.%s.p50" phase sh.sname) (1000. *. Util.median d))
        shapes;
      match Util.tail 0.95 (Tracer.durations spans name) with
      | Some v -> set (Printf.sprintf "snapshot.%s_ms.p95" phase) (1000. *. v)
      | None -> Util.check tally false ("enough samples for " ^ name ^ " p95"))
    Metrics.phases;
  Util.check tally
    (Hashtbl.find t "trace.unaccounted_frac" <= Drive.max_unaccounted)
    "layer self times account for the traced wall";
  (tally, Metrics.render Metrics.per_layer t)
