(* spec-solo: every SPEC-like kernel at both taint granularities,
   default sizes, tainted input, nat backend, superblocks on, each
   session run to completion on one domain — what [shiftc run] and
   [shiftc batch] users pay.  The engine does nearly all the work. *)

module S = Shift.Session
module Spec = Shift_workloads.Spec
module Mode = Shift_compiler.Mode

let config ?trace ?hwtrace ?superblocks k =
  S.Config.make ~setup:(Spec.setup ~tainted:true k) ?trace ?hwtrace ?superblocks ()

let golden_key (kname, mname) = Printf.sprintf "spec-solo/%s/%s" kname mname

let compile_all () =
  List.map
    (fun (kname, mname) ->
      let k = Option.get (Spec.find kname) in
      ((kname, mname), Drive.compile ~mode:(List.assoc mname Gen.modes) k.Spec.program))
    Gen.spec_sessions

(* set-up is compiling the 16 images (20 to 40 ms); the untraced run
   samples it 5 times at its start and 3 times after every pass *)
let setup () = Drive.setup ~reps:5 ~batch:1 compile_all
let setup_between_passes = 3

type accs = { word : Drive.engine_acc; byte : Drive.engine_acc; sim : Drive.sim_acc }

let accs () =
  { word = Drive.engine_acc (); byte = Drive.engine_acc (); sim = Drive.sim_acc () }

let run_session accs tally images (kname, mname) =
  let k = Option.get (Spec.find kname) in
  let live = Drive.start ~config:(config k) (List.assoc (kname, mname) images) in
  ignore (Drive.advance (if mname = "word" then accs.word else accs.byte) live);
  let r, _json = Drive.report live in
  Tracer.span "verify" (fun () ->
      Drive.note_sim accs.sim live r;
      Util.check tally (Golden.matches (golden_key (kname, mname)) r) (golden_key (kname, mname)))

let pass accs tally images ~seed ~pass_no =
  let t0 = Util.now () in
  List.iter (run_session accs tally images) (Gen.spec_order ~seed ~pass:pass_no);
  Util.now () -. t0

(* Each pass is a repeat of the same work: its MIPS and slice latencies
   are computed per pass and the run reports their medians, so a host
   disturbance that spans one pass does not decide the figure. *)
let untraced ~seed ~seconds =
  let tally = Util.tally () in
  let setup, images = setup () in
  let t0 = Util.now () in
  let rss = ref nan in
  let rec loop pass_no walls passes =
    let accs = accs () in
    let w = pass accs tally images ~seed ~pass_no in
    (* peak memory of one pass, whatever number of passes fits *)
    if pass_no = 0 then rss := Util.peak_rss_mb "self";
    for _ = 1 to setup_between_passes do
      ignore (Drive.setup_sample setup)
    done;
    let walls = w :: walls and passes = Drive.merge accs.word accs.byte :: passes in
    let elapsed = Util.now () -. t0 in
    if elapsed +. Util.mean walls <= seconds then loop (pass_no + 1) walls passes
    else passes
  in
  let passes = loop 0 [] [] in
  let per_pass f = Util.median (List.map f passes) in
  let t = Metrics.table () in
  let set = Metrics.set t in
  set "setup_s" (Drive.setup_s setup);
  set "peak_rss_mb" !rss;
  set "sim_mips" (per_pass Drive.sim_mips);
  set "alloc_words_per_instr"
    (Drive.alloc_per_instr (List.fold_left Drive.merge (Drive.engine_acc ()) passes));
  set "op_p50_ms" (per_pass (fun a -> 1000. *. Util.median a.Drive.slices));
  (match List.map (fun a -> Util.tail 0.95 a.Drive.slices) passes with
  | tails when List.for_all Option.is_some tails ->
      set "op_p95_ms" (1000. *. Util.median (List.map Option.get tails))
  | _ -> Util.check tally false "enough slices in every pass for p95");
  (tally, Metrics.render_e2e tally t)

(* contrast cells: one kernel under one configuration, a fixed stretch
   of instructions, host ns per simulated instruction.  Layers that
   outside timing cannot split show up as differences between cells. *)
let cell_instrs = 6_000_000

let cell kname variant =
  let k = Option.get (Spec.find kname) in
  let mode = if variant = "uninstr" then Mode.Uninstrumented else Mode.shift_word in
  let image = S.build ~mode k.Spec.program in
  let config =
    match variant with
    | "nosb" -> config ~superblocks:false k
    | "hwtrace" -> config ~hwtrace:true k
    | "flowtrace" -> config ~trace:Shift.Flowtrace.default_options k
    | _ -> config k
  in
  let acc = Drive.engine_acc () in
  ignore (Drive.advance ~limit:cell_instrs acc (S.start ~config image));
  (1e9 *. acc.Drive.seconds /. float acc.Drive.instrs, Drive.alloc_per_instr acc)

let traced ~seed ~seconds:_ =
  let tally = Util.tally () in
  let _, images = setup () in
  (* untraced passes before and after the traced one: the traced pass's
     extra wall over their mean is the tracing overhead *)
  let plain () = pass (accs ()) tally images ~seed ~pass_no:0 in
  let before = plain () in
  let accs = accs () in
  let gc0 = Drive.gc_counts () in
  Tracer.reset ();
  Tracer.enabled := true;
  let traced_wall =
    Tracer.span "spec-solo" (fun () ->
        ignore (compile_all ());
        pass accs tally images ~seed ~pass_no:1)
  in
  Tracer.enabled := false;
  let plain = (before +. plain ()) /. 2. in
  let t = Metrics.table () in
  Drive.set_gc t gc0;
  let spans = Tracer.spans () in
  let root = Drive.root_span spans "spec-solo" in
  Drive.set_span_layers t spans ~root;
  Drive.dump_spans ~workload:"spec-solo" ~seed spans;
  let set = Metrics.set t in
  let ns acc = 1e9 *. acc.Drive.seconds /. float acc.Drive.instrs in
  set "machine.ns_per_instr.word" (ns accs.word);
  set "machine.ns_per_instr.byte" (ns accs.byte);
  set "machine.alloc_words_per_instr" (Drive.alloc_per_instr (Drive.merge accs.word accs.byte));
  Drive.set_sim t accs.sim;
  set "trace.overhead_frac" ((traced_wall -. plain) /. plain);
  let flow = ref [] in
  List.iter
    (fun k ->
      List.iter
        (fun c ->
          let ns, words = cell k c in
          if c = "flowtrace" then flow := ns :: !flow;
          set (Printf.sprintf "cell.%s.%s_ns" k c) ns;
          set (Printf.sprintf "cell.%s.%s_words" k c) words)
        Metrics.cells)
    Metrics.cell_kernels;
  set "flowtrace.ns_per_instr" (Util.mean !flow);
  Util.check tally
    (Hashtbl.find t "trace.unaccounted_frac" <= Drive.max_unaccounted)
    "layer self times account for the traced wall";
  (tally, Metrics.render Metrics.per_layer t)
