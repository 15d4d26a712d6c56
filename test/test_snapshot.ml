(* Checkpoint/restore: a session frozen mid-flight, serialised, parsed
   back and restored in a fresh machine must finish with a report
   byte-identical to the unbroken run's — across single-hart, SMP and
   traced shapes, at byte and word granularity.  Plus the fleet
   supervisor built on top: crashes are contained, retries counted,
   deadlines enforced. *)

open Build
open Build.Infix
module Mode = Shift_compiler.Mode
module Policy = Shift_policy.Policy
module Memory = Shift_mem.Memory
module Addr = Shift_mem.Addr
module Spec = Shift_workloads.Spec

let tc = Util.tc
let fuel = 100_000_000

let report_json (r : Shift.Report.t) =
  Shift.Results.to_string (Shift.Results.of_report r)

let finish live =
  let rec loop () =
    match Shift.Session.advance live ~budget:max_int with
    | `Yielded -> loop ()
    | `Finished _ -> ()
  in
  loop ()

(* the straight run, through the same sliced driver as everything else *)
let straight ~config image =
  let live = Shift.Session.start ~config image in
  finish live;
  live

(* advance [yields] slices of [budget], checkpoint, serialise to JSON
   text, parse back, restore, and run the restored session to
   completion *)
let broken ~config ~budget ~yields image =
  let live = Shift.Session.start ~config image in
  for _ = 1 to yields do
    match Shift.Session.advance live ~budget with
    | `Yielded -> ()
    | `Finished _ -> Alcotest.fail "run finished before the checkpoint point"
  done;
  let snap = Shift.Session.checkpoint ~meta:[ ("origin", "test") ] live in
  let text = Shift.Results.to_string (Shift.Snapshot.to_json snap) in
  let snap =
    match Shift.Results.of_string text with
    | Error e -> Alcotest.failf "snapshot JSON did not parse: %s" e
    | Ok j -> (
        match Shift.Snapshot.of_json j with
        | Error e -> Alcotest.failf "snapshot did not decode: %s" e
        | Ok s -> s)
  in
  let live = Shift.Session.restore snap in
  finish live;
  live

let kernel name =
  match Spec.find name with
  | Some k -> k
  | None -> Alcotest.failf "kernel %s missing" name

let kernel_config ?threading ?trace k =
  Shift.Session.Config.make ~policy:Policy.default ~fuel
    ~setup:(Spec.setup ~size:256 ~tainted:true k)
    ?threading ?trace ()

let check_roundtrip ?threading ?trace ~mode ~budget ~yields name =
  let k = kernel name in
  let config = kernel_config ?threading ?trace k in
  let image = Shift.Session.build ~mode k.Spec.program in
  let reference = straight ~config image in
  let resumed = broken ~config ~budget ~yields image in
  Util.check_string "byte-identical report"
    (report_json (Shift.Session.report reference))
    (report_json (Shift.Session.report resumed));
  (reference, resumed)

let spawn_prog =
  {
    Ir.globals = [];
    funcs =
      [
        func "worker" ~params:[ "x" ] ~locals:[] [ ret (v "x" *: v "x") ];
        func "main" ~params:[] ~locals:[ scalar "t1"; scalar "t2" ]
          [
            set "t1" (call "sys_spawn" [ fnptr "worker"; i 5 ]);
            set "t2" (call "sys_spawn" [ fnptr "worker"; i 6 ]);
            ret (call "sys_join" [ v "t1" ] +: call "sys_join" [ v "t2" ]);
          ];
      ];
  }

let roundtrip_tests =
  [
    tc "single hart, word granularity" (fun () ->
        ignore
          (check_roundtrip ~mode:Mode.shift_word ~budget:5000 ~yields:3 "gzip"));
    tc "single hart, byte granularity" (fun () ->
        ignore
          (check_roundtrip ~mode:Mode.shift_byte ~budget:5000 ~yields:3 "gzip"));
    tc "single hart, uninstrumented" (fun () ->
        ignore
          (check_roundtrip ~mode:Mode.Uninstrumented ~budget:3000 ~yields:2
             "mcf"));
    tc "traced run: flow events and ring survive the round trip" (fun () ->
        (* a 64-event ring wraps many times over a tainted gzip run, so
           this exercises re-seating a wrapped ring, interned sources
           and the provenance shadow pages *)
        let trace = { Shift.Flowtrace.capacity = 64; only = None } in
        let reference, resumed =
          check_roundtrip ~trace ~mode:Mode.shift_word ~budget:5000 ~yields:3
            "gzip"
        in
        let jsonl live =
          match Shift.Session.flowtrace live with
          | Some ft -> Shift.Flow.jsonl ft
          | None -> Alcotest.fail "traced session lost its flow trace"
        in
        Util.check_string "byte-identical flow JSONL" (jsonl reference)
          (jsonl resumed));
    tc "SMP: checkpoint lands mid-quantum and resumes exactly" (fun () ->
        (* quantum 7 with budget 13 suspends inside a hart's turn; the
           restored scheduler must resume the identical interleaving *)
        let threading = Shift.Session.Config.Threads { quantum = Some 7 } in
        let config =
          Shift.Session.Config.make ~policy:Policy.default ~fuel ~threading ()
        in
        let image = Shift.Session.build ~mode:Mode.shift_word spawn_prog in
        let reference = straight ~config image in
        let resumed = broken ~config ~budget:13 ~yields:5 image in
        Util.check_string "byte-identical report"
          (report_json (Shift.Session.report reference))
          (report_json (Shift.Session.report resumed)));
    tc "SMP + trace: shared ring and per-hart shadows round-trip" (fun () ->
        let threading = Shift.Session.Config.Threads { quantum = Some 7 } in
        let trace = { Shift.Flowtrace.capacity = 128; only = None } in
        let config =
          Shift.Session.Config.make ~policy:Policy.default ~fuel ~threading
            ~trace ()
        in
        let image = Shift.Session.build ~mode:Mode.shift_word spawn_prog in
        let reference = straight ~config image in
        let resumed = broken ~config ~budget:13 ~yields:4 image in
        Util.check_string "byte-identical report"
          (report_json (Shift.Session.report reference))
          (report_json (Shift.Session.report resumed)));
    tc "a finished session checkpoints and restores its outcome" (fun () ->
        let k = kernel "mcf" in
        let config = kernel_config k in
        let image = Shift.Session.build ~mode:Mode.shift_word k.Spec.program in
        let live = straight ~config image in
        let snap = Shift.Session.checkpoint live in
        let restored = Shift.Session.restore snap in
        finish restored;
        Util.check_string "same report"
          (report_json (Shift.Session.report live))
          (report_json (Shift.Session.report restored)));
    tc "save/load: the on-disk file restores byte-identically" (fun () ->
        let k = kernel "gzip" in
        let config = kernel_config k in
        let image = Shift.Session.build ~mode:Mode.shift_word k.Spec.program in
        let reference = straight ~config image in
        let live = Shift.Session.start ~config image in
        (match Shift.Session.advance live ~budget:10_000 with
        | `Yielded -> ()
        | `Finished _ -> Alcotest.fail "finished too early");
        let path = Filename.temp_file "shift-snap" ".json" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            Shift.Snapshot.save path
              (Shift.Session.checkpoint ~meta:[ ("kernel", "gzip") ] live);
            match Shift.Snapshot.load path with
            | Error e -> Alcotest.failf "load: %s" e
            | Ok snap ->
                Util.check_string "meta survives" "gzip"
                  (List.assoc "kernel" snap.Shift.Snapshot.meta);
                let resumed = Shift.Session.restore snap in
                finish resumed;
                Util.check_string "byte-identical report"
                  (report_json (Shift.Session.report reference))
                  (report_json (Shift.Session.report resumed))));
  ]

(* ---------- memory page dump/load ---------- *)

let page = Memory.page_size

let page_tests =
  [
    tc "a write spanning a page boundary dumps and reloads" (fun () ->
        let m = Memory.create () in
        let addr = Addr.in_region 1 (Int64.of_int ((2 * page) - 3)) in
        Memory.write_bytes m addr "boundary";
        let pages =
          Memory.fold_pages m ~init:[] ~f:(fun acc key data ->
              (key, Bytes.to_string data) :: acc)
          |> List.rev
        in
        Util.check_int "two pages touched" 2 (List.length pages);
        let m2 = Memory.create () in
        List.iter (fun (key, data) -> Memory.load_page m2 key data) pages;
        Util.check_string "bytes cross the boundary intact" "boundary"
          (Memory.read_bytes m2 addr ~len:8));
    tc "all-zero pages are elided from the dump" (fun () ->
        let m = Memory.create () in
        Memory.write_u8 m (Addr.in_region 1 0x2100L) 7;
        (* touch a second page but leave it all-zero again *)
        Memory.write_u8 m (Addr.in_region 1 (Int64.of_int (page * 5))) 1;
        Memory.write_u8 m (Addr.in_region 1 (Int64.of_int (page * 5))) 0;
        let keys =
          Memory.fold_pages m ~init:[] ~f:(fun acc key _ -> key :: acc)
        in
        Util.check_int "only the non-zero page" 1 (List.length keys);
        Util.check_int "pages allocated" 2 (Memory.allocated_pages m));
    tc "load_page rejects a short page" (fun () ->
        let m = Memory.create () in
        Alcotest.check_raises "size mismatch"
          (Invalid_argument
             "Memory.load_page: page data must be exactly page_size bytes")
          (fun () -> Memory.load_page m 0L "short"));
    tc "pages fold in ascending key order" (fun () ->
        let m = Memory.create () in
        List.iter
          (fun p -> Memory.write_u8 m (Addr.in_region 1 (Int64.of_int (p * page))) 1)
          [ 9; 2; 5 ];
        let keys =
          Memory.fold_pages m ~init:[] ~f:(fun acc key _ -> key :: acc)
          |> List.rev
        in
        Util.check_bool "sorted" true (keys = List.sort compare keys);
        Util.check_int "three pages" 3 (List.length keys));
  ]

(* ---------- the fleet supervisor ---------- *)

let good_job name kernel_name =
  let k = kernel kernel_name in
  Shift.Fleet.job ~name
    ~config:(kernel_config k)
    (fun () -> Shift.Session.build ~mode:Mode.shift_word k.Spec.program)

let fleet_json f = Shift.Results.to_string (Shift.Fleet.to_json f)

let fleet_tests =
  [
    tc "a poisoned job is contained; siblings still finish" (fun () ->
        let jobs =
          [
            good_job "a" "gzip";
            Shift.Fleet.job ~name:"boom" (fun () -> failwith "poisoned image");
            good_job "b" "mcf";
          ]
        in
        let fleet = Shift.Fleet.run ~domains:2 jobs in
        Util.check_int "exited" 2 fleet.Shift.Fleet.exited;
        Util.check_int "crashed" 1 fleet.Shift.Fleet.crashed;
        (match fleet.Shift.Fleet.results with
        | [ a; boom; b ] ->
            Util.check_string "order" "a" a.Shift.Fleet.name;
            Util.check_string "order" "boom" boom.Shift.Fleet.name;
            Util.check_string "order" "b" b.Shift.Fleet.name;
            (match boom.Shift.Fleet.outcome with
            | Shift.Fleet.Crashed c ->
                Util.check_int "single attempt" 1 c.Shift.Fleet.attempts;
                Util.check_bool "exception text" true
                  (String.length c.Shift.Fleet.exn > 0)
            | Shift.Fleet.Finished _ -> Alcotest.fail "poisoned job finished")
        | _ -> Alcotest.fail "result list lost entries");
        (* a raising setup closure is contained the same way *)
        let bad_setup =
          Shift.Fleet.job ~name:"setup"
            ~config:
              (Shift.Session.Config.make
                 ~setup:(fun _ -> failwith "poisoned setup")
                 ())
            (fun () ->
              Shift.Session.build ~mode:Mode.shift_word
                (Util.main_returning [ ret (i 0) ]))
        in
        let fleet = Shift.Fleet.run [ bad_setup ] in
        Util.check_int "crashed" 1 fleet.Shift.Fleet.crashed);
    tc "retries rerun a crashing job the configured number of times"
      (fun () ->
        let jobs =
          [ Shift.Fleet.job ~name:"boom" (fun () -> failwith "always") ]
        in
        let fleet = Shift.Fleet.run ~retries:2 jobs in
        match fleet.Shift.Fleet.results with
        | [ { Shift.Fleet.outcome = Shift.Fleet.Crashed c; _ } ] ->
            Util.check_int "attempts" 3 c.Shift.Fleet.attempts
        | _ -> Alcotest.fail "expected one crashed result");
    tc "a per-job deadline times the session out" (fun () ->
        let k = kernel "gzip" in
        let job =
          Shift.Fleet.job ~name:"slow" ~deadline:1000
            ~config:(kernel_config k)
            (fun () -> Shift.Session.build ~mode:Mode.shift_word k.Spec.program)
        in
        let fleet = Shift.Fleet.run [ job ] in
        Util.check_int "timed out" 1 fleet.Shift.Fleet.timed_out);
    tc "checkpointed driving never changes the aggregate" (fun () ->
        let jobs = [ good_job "a" "gzip"; good_job "b" "mcf" ] in
        let plain = fleet_json (Shift.Fleet.run ~domains:2 jobs) in
        let sliced =
          fleet_json
            (Shift.Fleet.run ~domains:2 ~retries:1 ~checkpoint_every:4096 jobs)
        in
        Util.check_string "byte-identical fleet JSON" plain sliced);
  ]

(* ---------- import checks on ip and call-stack targets ---------- *)

(* the JSON of an mcf word checkpoint taken a few slices in, with the
   single hart's object rewritten by [f] *)
let edited_hart f =
  let k = kernel "mcf" in
  let config = kernel_config k in
  let live = Shift.Session.start ~config (Shift.Session.build ~mode:Mode.shift_word k.Spec.program) in
  for _ = 1 to 3 do
    ignore (Shift.Session.advance live ~budget:5000)
  done;
  let module R = Shift.Results in
  let on_field name g = function
    | R.Obj fields -> R.Obj (List.map (fun (k, v) -> if k = name then (k, g v) else (k, v)) fields)
    | _ -> Alcotest.failf "expected an object around %S" name
  in
  Shift.Snapshot.to_json (Shift.Session.checkpoint live)
  |> on_field "machine" (on_field "hart" f)
  |> Shift.Snapshot.of_json

let refused what needle = function
  | Ok _ -> Alcotest.failf "%s: snapshot accepted" what
  | Error e ->
      if not (Str_exists.contains e needle) then
        Alcotest.failf "%s: error %S does not mention %S" what e needle

let target_tests =
  let module R = Shift.Results in
  let set name v = function
    | R.Obj fields -> R.Obj (List.map (fun (k, x) -> if k = name then (k, v) else (k, x)) fields)
    | j -> j
  in
  [
    tc "an ip far past the program is refused" (fun () ->
        refused "ip 99999999" "ip 99999999" (edited_hart (set "ip" (R.Int 99999999))));
    tc "a negative ip is refused" (fun () ->
        refused "ip -1" "ip -1" (edited_hart (set "ip" (R.Int (-1)))));
    tc "a call-stack return target past the program is refused" (fun () ->
        refused "return target" "return target 99999999"
          (edited_hart
             (set "call_stack" (R.List [ R.List [ R.Int 99999999; R.String "0" ] ]))));
    tc "an ip at the end of the program is accepted" (fun () ->
        (* where a program that runs off its last instruction stands *)
        let size =
          Shift_isa.Program.size
            (Shift.Session.build ~mode:Mode.shift_word (kernel "mcf").Spec.program)
              .Shift_compiler.Image.program
        in
        match edited_hart (set "ip" (R.Int size)) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "refused: %s" e);
  ]

let suites =
  [
    ("snapshot.roundtrip", roundtrip_tests);
    ("snapshot.pages", page_tests);
    ("snapshot.fleet", fleet_tests);
    ("snapshot.targets", target_tests);
  ]
