(* serve-open: a [shiftc serve -j 2] daemon in its own process, fed an
   open-loop Poisson stream over one connection by a single-threaded
   select loop.  Latency is timed from each request's due time.

   The traced run replays the same stream in process, through the
   public pieces the daemon is built from — Protocol.of_line, the
   catalogue's job construction, Serve.Scheduler with its on_slice and
   on_done hooks, Leak.detect answered synchronously on the loop, and
   Results/Protocol encoding of each reply — with a span around each. *)

module S = Shift.Session
module P = Shift.Protocol
module J = Shift.Results
module Fleet = Shift.Fleet
module Sched = Shift.Serve.Scheduler
module Spec = Shift_workloads.Spec
module Case = Shift_attacks.Attack_case
module Catalog = Shift_catalog.Catalog

(* offered load: the daemon's workers stay about 10% busy; at higher
   rates queueing amplified host-speed changes into latency spreads
   wider than the bound (see README.md) *)
let rate = 10.
let workers = 2

(* the daemon, as run.py builds it *)
let shiftc = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "shiftc.exe"))

(* how long to wait for the last replies once the stream has been sent *)
let drain_grace = 60.

(* ---------- reply checks ---------- *)

let field path j =
  List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path

let string_at path j =
  match field path j with Some (J.String s) -> Some s | _ -> None

(* does a successful reply's result match what the request expects? *)
let expected (r : Gen.request) result =
  match r.Gen.expect with
  | Gen.Leaks want -> field [ "leak" ] result = Some (J.Bool want)
  | Gen.Alert policy ->
      string_at [ "report"; "outcome"; "kind" ] result = Some "alert"
      && string_at [ "report"; "outcome"; "policy" ] result = Some policy
  | Gen.Clean ->
      string_at [ "report"; "outcome"; "kind" ] result = Some "exited"
      && field [ "report"; "detected" ] result = Some (J.Bool false)

let instructions result =
  match field [ "report"; "stats"; "instructions" ] result with
  | Some (J.Int n) -> n
  | _ -> 0

let check_reply tally (r : Gen.request) reply =
  let ok = P.response_ok reply in
  let result = Option.value ~default:J.Null (J.member "result" reply) in
  Util.check tally
    (ok && expected r result)
    (Printf.sprintf "r%d (%s): unexpected reply %s" r.Gen.idx r.Gen.kind
       (String.sub (J.to_string ~minify:true reply) 0
          (min 300 (String.length (J.to_string ~minify:true reply)))));
  result

let request_index id = Scanf.sscanf id "r%d" Fun.id

(* ---------- solo comparison ---------- *)

(* the in-process answer to a request, through the standard catalogue:
   what [shiftc run/attack/trace/leak --json] print *)
let solo (env : P.envelope) =
  let c = Catalog.standard in
  let job = function
    | Error e -> failwith e
    | Ok j -> (
        match Fleet.step j with
        | Fleet.Done report -> J.of_report report
        | Fleet.Parked _ | Fleet.Failed _ -> failwith "solo run did not finish")
  in
  match env.P.request with
  | P.Run { kernel; mode; size; safe; superblocks; backend } ->
      job (c.Shift.Serve.kernel_job ~mode ~size ~safe ~superblocks ~backend kernel)
  | P.Attack { case; mode; benign; superblocks; backend } ->
      job (c.Shift.Serve.attack_job ~mode ~benign ~superblocks ~backend case)
  | P.Trace { image; mode; benign; ring; only; superblocks; backend } ->
      job (c.Shift.Serve.trace_job ~mode ~benign ~ring ~only ~superblocks ~backend image)
  | P.Leak { case; mode; clause; variants; superblocks; backend } -> (
      match c.Shift.Serve.leak_job ~mode ~clause ~variants ~superblocks ~backend case with
      | Ok run -> Shift.Leak.verdict_to_json (run ())
      | Error e -> failwith e)
  | P.Batch _ | P.Status | P.Drain -> failwith "not a single-job request"

let compare_solo tally (r : Gen.request) result =
  let served =
    match r.Gen.kind with
    | "leak" -> result
    | _ -> Option.value ~default:J.Null (J.member "report" result)
  in
  let mine = solo r.Gen.env in
  Util.check tally
    (J.to_string ~minify:true served = J.to_string ~minify:true mine)
    (Printf.sprintf "r%d (%s): served reply differs from the solo run" r.Gen.idx
       r.Gen.kind)

(* ---------- the daemon ---------- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let send conn line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write conn.fd b off (Bytes.length b - off))
  in
  go 0

(* complete lines received so far; [None] at EOF *)
let receive conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> None
  | n ->
      Buffer.add_subbytes conn.buf chunk 0 n;
      let s = Buffer.contents conn.buf in
      let parts = String.split_on_char '\n' s in
      let rec split acc = function
        | [ rest ] ->
            Buffer.clear conn.buf;
            Buffer.add_string conn.buf rest;
            List.rev acc
        | l :: rest -> split (l :: acc) rest
        | [] -> List.rev acc
      in
      Some (split [] parts)

let rec read_line conn =
  match receive conn with
  | None -> failwith "daemon closed the connection"
  | Some (l :: _) -> l
  | Some [] -> read_line conn

type daemon = { pid : int; conn : conn; gc_log : string }

let without_ocamlrunparam env =
  List.filter
    (fun kv -> not (String.length kv >= 14 && String.sub kv 0 14 = "OCAMLRUNPARAM="))
    (Array.to_list env)

(* spawn the daemon and wait for its hello ack; returns the spawn-to-ack
   time.  OCAMLRUNPARAM=v=0x400 makes it print its GC totals on exit. *)
let spawn ~dir n =
  let sock = Filename.concat dir (Printf.sprintf "d%d.sock" n) in
  let gc_log = Filename.concat dir (Printf.sprintf "d%d.log" n) in
  let log = Unix.openfile gc_log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let env =
    Array.of_list
      ("OCAMLRUNPARAM=v=0x400" :: without_ocamlrunparam (Unix.environment ()))
  in
  let t0 = Util.now () in
  let pid =
    Unix.create_process_env shiftc
      [| shiftc; "serve"; "-j"; string_of_int workers; "--socket"; sock |]
      env Unix.stdin log log
  in
  Unix.close log;
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        if tries = 0 then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          failwith "daemon did not open its socket"
        end;
        Unix.sleepf 0.0005;
        connect (tries - 1)
  in
  let conn = { fd = connect 20_000; buf = Buffer.create 65536 } in
  send conn (P.to_line P.hello);
  let ack = read_line conn in
  let dt = Util.now () -. t0 in
  if not (P.response_ok (Result.get_ok (J.of_string ack))) then
    failwith ("bad hello ack: " ^ ack);
  ({ pid; conn; gc_log }, dt)

(* drain, wait for the process, and return its minor-heap words, if
   its GC totals could be read *)
let stop d =
  send d.conn
    (P.to_line
       (P.request_to_json
          {
            P.id = Some "drain";
            tenant = None;
            deadline = None;
            migrate_every = None;
            request = P.Drain;
          }));
  let rec until_drained () =
    match receive d.conn with
    | None -> ()
    | Some lines ->
        if
          List.exists
            (fun l ->
              match J.of_string l with
              | Ok j -> P.response_id j = Some "drain"
              | Error _ -> false)
            lines
        then ()
        else until_drained ()
  in
  until_drained ();
  Unix.close d.conn.fd;
  ignore (Unix.waitpid [] d.pid);
  let words =
    List.find_map
      (fun l -> Scanf.sscanf_opt l "minor_words: %d" Fun.id)
      (String.split_on_char '\n' (Util.read_file d.gc_log))
  in
  words

(* set-up is sampled by 11 spawns before the stream (the last one
   serves it) and 10 after it, so that it sees the host at two moments
   of the run rather than one *)
let setup_before = 11
let setup_after = 10

let untraced ~seed ~seconds =
  let tally = Util.tally () in
  let dir = Util.scratch_dir () in
  let times = ref [] in
  let spawn_and_stop n =
    let d, dt = spawn ~dir n in
    times := dt :: !times;
    ignore (stop d)
  in
  for n = 1 to setup_before - 1 do
    spawn_and_stop n
  done;
  let d, dt = spawn ~dir setup_before in
  times := dt :: !times;
  let stopped = ref false in
  Fun.protect ~finally:(fun () ->
      if not !stopped then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end)
  @@ fun () ->
  let reqs = Array.of_list (Gen.requests ~seed ~rate ~seconds) in
  let n = Array.length reqs in
  let lines = Array.map (fun r -> P.to_line (P.request_to_json r.Gen.env)) reqs in
  let sample = Gen.solo_sample ~seed (Array.to_list reqs) ~count:8 in
  let sampled = Hashtbl.create 8 in
  let latencies = Array.make n nan and lags = ref [] in
  let answered = ref 0 and instrs = ref 0 in
  let cpu0 = Util.cpu_seconds d.pid in
  let start = Util.now () +. 0.05 in
  let give_up = start +. seconds +. drain_grace in
  let next = ref 0 in
  let on_line line =
    match J.of_string line with
    | Error _ -> Util.check tally false ("unparsable reply: " ^ line)
    | Ok reply -> (
        match P.response_id reply with
        | None -> Util.check tally false ("reply without id: " ^ line)
        | Some id ->
            let i = request_index id in
            let r = reqs.(i) in
            latencies.(i) <- Util.latency ~due:(start +. r.Gen.due) ~answered:(Util.now ());
            incr answered;
            let result = check_reply tally r reply in
            instrs := !instrs + instructions result;
            if List.memq r sample then Hashtbl.replace sampled i result)
  in
  while !answered < n && Util.now () < give_up do
    let t = Util.now () in
    if !next < n && t >= start +. reqs.(!next).Gen.due then begin
      send d.conn lines.(!next);
      lags := Util.lag ~due:(start +. reqs.(!next).Gen.due) ~sent:t :: !lags;
      incr next
    end
    else begin
      let wait =
        if !next < n then start +. reqs.(!next).Gen.due -. t else give_up -. t
      in
      match Unix.select [ d.conn.fd ] [] [] (Float.max 0. wait) with
      | [], _, _ -> ()
      | _ -> (
          match receive d.conn with
          | None -> failwith "daemon closed the connection"
          | Some ls -> List.iter on_line ls)
    end
  done;
  Util.check tally (!answered = n)
    (Printf.sprintf "%d of %d requests answered" !answered n);
  let cpu = Util.cpu_seconds d.pid -. cpu0 in
  let rss = Util.peak_rss_mb (string_of_int d.pid) in
  let words = stop d in
  stopped := true;
  for n = setup_before + 1 to setup_before + setup_after do
    spawn_and_stop n
  done;
  Util.rm_rf dir;
  Util.check tally
    (Util.generator_ok ~lags:!lags ~mean_gap:(seconds /. float n))
    "the generator kept to its schedule (run invalid otherwise)";
  (* a seed-chosen sample, compared byte for byte with solo runs *)
  List.iter
    (fun (r : Gen.request) ->
      match Hashtbl.find_opt sampled r.Gen.idx with
      | Some result -> compare_solo tally r result
      | None -> ())
    sample;
  let lat = List.filter (fun x -> not (Float.is_nan x)) (Array.to_list latencies) in
  let t = Metrics.table () in
  let set = Metrics.set t in
  set "setup_s" (Util.median !times);
  set "peak_rss_mb" rss;
  set "sim_mips" (float !instrs /. cpu /. 1e6);
  (match words with
  | Some w -> set "alloc_words_per_instr" (float w /. float !instrs)
  | None -> Util.check tally false "the daemon printed its GC totals");
  set "op_p50_ms" (1000. *. Util.median lat);
  (match Util.tail 0.95 lat with
  | Some v -> set "op_p95_ms" (1000. *. v)
  | None -> Util.check tally false "enough requests for p95");
  (tally, Metrics.render_e2e tally t)

(* ---------- the traced in-process replay ---------- *)

(* per-job host timestamps, written on worker domains *)
type job_times = {
  mutable submitted : float;
  mutable build_start : float;
  mutable build_end : float;
  mutable setup_end : float;
}

(* the catalogue's job construction (lib/catalog), with the image thunk
   and world setup wrapped so compile, load and queue wait are timed *)
let instrumented_job ~root ~idx times (env : P.envelope) =
  let build f () =
    times.build_start <- Util.now ();
    let img = f () in
    times.build_end <- Util.now ();
    Tracer.add ~parent:root ~req:idx "compiler" times.build_start times.build_end;
    img
  in
  let wrap (cfg : S.Config.t) =
    {
      cfg with
      S.Config.setup =
        (fun w ->
          cfg.S.Config.setup w;
          times.setup_end <- Util.now ();
          Tracer.add ~parent:root ~req:idx "session.start" times.build_end
            times.setup_end);
    }
  in
  let case name =
    match Shift_attacks.Attacks.find name with
    | Some c -> c
    | None -> failwith ("unknown case " ^ name)
  in
  match env.P.request with
  | P.Run { kernel; mode; size; safe; superblocks; backend } ->
      let k = Option.get (Spec.find kernel) in
      let mode = S.effective_mode ~backend mode in
      Fleet.job ~name:kernel
        ~config:
          (wrap
             (S.Config.make ~policy:Shift_policy.Policy.default
                ~setup:(Spec.setup ?size ~tainted:(not safe) k)
                ~superblocks ~backend ()))
        (build (fun () -> S.build ~backend ~mode k.Spec.program))
  | P.Attack { case = name; mode; benign; superblocks; backend } ->
      let c = case name in
      let input = if benign then c.Case.benign else c.Case.exploit in
      Fleet.job ~name
        ~config:(wrap (Case.config ~superblocks ~backend ~mode ~input c))
        (build (fun () -> Case.image ~backend ~mode c))
  | P.Trace { image; mode; benign; ring; only; superblocks; backend } ->
      let c = case image in
      let input = if benign then c.Case.benign else c.Case.exploit in
      let only =
        Option.map
          (fun s ->
            List.filter_map Shift.Flowtrace.kind_of_string (String.split_on_char ',' s))
          only
      in
      Fleet.job ~name:image
        ~config:
          (wrap
             (Case.config ~trace:{ Shift.Flowtrace.capacity = ring; only } ~superblocks
                ~backend ~mode ~input c))
        (build (fun () -> Case.image ~backend ~mode c))
  | _ -> invalid_arg "instrumented_job"

(* cost of recording one span, to estimate the tracing overhead of a
   replay that has no untraced twin *)
let span_cost () =
  let n = 20_000 in
  Tracer.reset ();
  Tracer.enabled := true;
  let t0 = Util.now () in
  for _ = 1 to n do
    Tracer.span "calibrate" ignore
  done;
  let cost = (Util.now () -. t0) /. float n in
  Tracer.enabled := false;
  Tracer.reset ();
  cost

let traced ~seed ~seconds =
  let tally = Util.tally () in
  let reqs = Array.of_list (Gen.requests ~seed ~rate ~seconds) in
  let n = Array.length reqs in
  let lines = Array.map (fun r -> P.to_line (P.request_to_json r.Gen.env)) reqs in
  let times =
    Array.init n (fun _ ->
        { submitted = nan; build_start = nan; build_end = nan; setup_end = nan })
  in
  let latencies = Array.make n nan and lags = ref [] in
  let slices = ref [] and slice_lock = Mutex.create () in
  let migrations = ref 0 and crashed = ref 0 in
  let sim = Drive.sim_acc () in
  let leaks = ref [] in
  Tracer.reset ();
  Tracer.enabled := true;
  let gc0 = Drive.gc_counts () in
  let wall =
    Tracer.span "serve-open" (fun () ->
        let root = Tracer.current () in
        let on_slice dt =
          let t = Util.now () in
          Tracer.add ~parent:root "machine.slice" (t -. dt) t;
          Mutex.lock slice_lock;
          slices := dt :: !slices;
          Mutex.unlock slice_lock
        in
        let sched = Sched.create ~workers ~slice:Drive.slice ~on_slice () in
        let start = Util.now () +. 0.05 in
        let give_up = start +. seconds +. drain_grace in
        let next = ref 0 and answered = ref 0 in
        let reply i result_json =
          let line =
            Tracer.span ~req:i "protocol.encode" (fun () ->
                P.to_line (P.ok_response ~id:(Printf.sprintf "r%d" i) result_json))
          in
          latencies.(i) <- Util.latency ~due:(start +. reqs.(i).Gen.due) ~answered:(Util.now ());
          incr answered;
          Tracer.span "verify" (fun () ->
              match J.of_string line with
              | Ok j -> ignore (check_reply tally reqs.(i) j)
              | Error e -> Util.check tally false e)
        in
        let admit i =
          let t = Util.now () in
          lags := Util.lag ~due:(start +. reqs.(i).Gen.due) ~sent:t :: !lags;
          match Tracer.span ~req:i "protocol.decode" (fun () -> P.of_line lines.(i)) with
          | Error _ -> Util.check tally false (Printf.sprintf "r%d did not parse" i)
          | Ok env -> (
              match env.P.request with
              | P.Leak { case; mode; clause; variants; superblocks; backend } ->
                  (* answered synchronously on the loop, as the daemon does *)
                  let l0 = Util.now () in
                  let verdict =
                    Tracer.span ~req:i "leak" (fun () ->
                        match
                          Catalog.leak_start ~superblocks ~backend ~mode case
                        with
                        | Ok start -> Shift.Leak.detect ~clause ~count:variants ~start ()
                        | Error e -> failwith e)
                  in
                  leaks := (Util.now () -. l0) :: !leaks;
                  reply i (Shift.Leak.verdict_to_json verdict)
              | _ ->
                  let job = instrumented_job ~root ~idx:i times.(i) env in
                  times.(i).submitted <- Util.now ();
                  Sched.submit sched ?migrate_every:env.P.migrate_every
                    ~id:(string_of_int i) job)
        in
        let collect () =
          List.iter
            (fun (dj : Sched.done_job) ->
              let i = int_of_string dj.Sched.job in
              migrations := !migrations + dj.Sched.migrations;
              match dj.Sched.outcome with
              | Fleet.Crashed c ->
                  incr crashed;
                  Util.check tally false (Printf.sprintf "r%d crashed: %s" i c.Fleet.exn)
              | Fleet.Finished report ->
                  let result =
                    Tracer.span ~req:i "results.encode" (fun () ->
                        J.Obj
                          [
                            ("migrations", J.Int dj.Sched.migrations);
                            ("attempts", J.Int dj.Sched.attempts);
                            ("report", J.of_report report);
                          ])
                  in
                  Drive.note_report sim report;
                  reply i result)
            (Sched.take_finished sched)
        in
        while !answered + !crashed < n && Util.now () < give_up do
          let t = Util.now () in
          if !next < n && t >= start +. reqs.(!next).Gen.due then begin
            admit !next;
            incr next
          end
          else begin
            collect ();
            let wait =
              if !next < n then start +. reqs.(!next).Gen.due -. Util.now () else 0.0005
            in
            Tracer.span "idle" (fun () -> Unix.sleepf (Float.min 0.0005 (Float.max 0. wait)))
          end
        done;
        Util.check tally (!answered = n)
          (Printf.sprintf "%d of %d requests answered" !answered n);
        Sched.drain sched;
        Sched.shutdown sched;
        Util.now () -. start)
  in
  Tracer.enabled := false;
  let spans = Tracer.spans () in
  let cost = span_cost () in
  let t = Metrics.table () in
  let set = Metrics.set t in
  Drive.set_gc t gc0;
  let root = Drive.root_span spans "serve-open" in
  Drive.set_span_layers t spans ~root;
  Drive.dump_spans ~workload:"serve-open" ~seed spans;
  set "trace.overhead_frac" (cost *. float (List.length spans) /. wall);
  let put name xs p scale =
    match Util.tail p xs with
    | Some v -> set name (scale *. v)
    | None -> Util.check tally false ("enough samples for " ^ name)
  in
  let ms = List.map (fun x -> 1000. *. x) in
  let us = List.map (fun x -> 1e6 *. x) in
  set "protocol.decode_us" (Util.mean (us (Tracer.durations spans "protocol.decode")));
  set "protocol.encode_us" (Util.mean (us (Tracer.durations spans "protocol.encode")));
  set "leak.ms_per_probe" (Util.mean (ms !leaks));
  set "serve.loop_blocked_ms" (1000. *. List.fold_left ( +. ) 0. !leaks /. wall);
  put "serve.gen_lag_ms" !lags 0.95 1000.;
  let waits =
    Array.to_list times
    |> List.filter_map (fun j ->
           if Float.is_nan j.build_start then None else Some (j.build_start -. j.submitted))
  in
  set "sched.queue_wait_ms.p50" (1000. *. Util.median waits);
  put "sched.queue_wait_ms.p95" waits 0.95 1000.;
  set "sched.slice_us.p50" (1e6 *. Util.median !slices);
  put "sched.slice_us.p95" !slices 0.95 1e6;
  let self = Tracer.self_by_name spans in
  set "sched.worker_busy_frac"
    ((Tracer.self_of self "machine.slice" +. Tracer.self_of self "compiler"
     +. Tracer.self_of self "session.start")
    /. (float workers *. wall));
  set "sched.migrations" (float !migrations);
  set "sched.crashed" (float !crashed);
  List.iter
    (fun k ->
      let xs =
        List.filter_map
          (fun (r : Gen.request) ->
            if r.Gen.kind = k && not (Float.is_nan latencies.(r.Gen.idx)) then
              Some (1000. *. latencies.(r.Gen.idx))
            else None)
          (Array.to_list reqs)
      in
      set ("req_p50_ms." ^ k) (Util.median xs))
    Metrics.kinds;
  Drive.set_sim t sim;
  Util.check tally
    (Hashtbl.find t "trace.unaccounted_frac" <= Drive.max_unaccounted)
    "layer self times account for the traced wall";
  (tally, Metrics.render Metrics.per_layer t)
