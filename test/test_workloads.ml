(* The workload suite: kernels must behave identically under every
   compilation mode (instrumentation is semantically transparent), and
   the server must serve while H2 still guards its document root. *)

module Mode = Shift_compiler.Mode
module Spec = Shift_workloads.Spec
module Httpd = Shift_workloads.Httpd
module World = Shift_os.World

let tc = Util.tc

(* small inputs keep the whole matrix fast *)
let small_size = Golden_runs.small_size

let run_kernel ?(tainted = true) ~mode (k : Spec.kernel) =
  Shift.Session.run ~policy:Shift_policy.Policy.default
    ~setup:(Spec.setup ~size:(small_size k) ~tainted k)
    ~fuel:100_000_000 ~mode k.Spec.program

let kernel_modes =
  [
    Mode.Uninstrumented;
    Mode.shift_word;
    Mode.shift_byte;
    Mode.Shift { granularity = Shift_mem.Granularity.Word; enh = Mode.enh1 };
    Mode.Shift { granularity = Shift_mem.Granularity.Byte; enh = Mode.enh_both };
    Mode.Software_dbt { granularity = Shift_mem.Granularity.Word };
  ]

let semantics_tests =
  List.map
    (fun (k : Spec.kernel) ->
      tc (Printf.sprintf "%s: same result under every mode" k.Spec.name) (fun () ->
          let reference = Util.exit_code (run_kernel ~mode:Mode.Uninstrumented k) in
          List.iter
            (fun mode ->
              Util.check_i64
                (Printf.sprintf "%s/%s" k.Spec.name (Mode.to_string mode))
                reference
                (Util.exit_code (run_kernel ~mode k)))
            kernel_modes))
    Spec.all

let safe_unsafe_tests =
  List.map
    (fun (k : Spec.kernel) ->
      tc (Printf.sprintf "%s: tainted input does not change the result" k.Spec.name)
        (fun () ->
          Util.check_i64 k.Spec.name
            (Util.exit_code (run_kernel ~tainted:false ~mode:Mode.shift_word k))
            (Util.exit_code (run_kernel ~tainted:true ~mode:Mode.shift_word k))))
    Spec.all

let overhead_tests =
  [
    tc "every kernel slows down under instrumentation" (fun () ->
        List.iter
          (fun (k : Spec.kernel) ->
            let base = Shift.Report.cycles (run_kernel ~mode:Mode.Uninstrumented k) in
            let word = Shift.Report.cycles (run_kernel ~mode:Mode.shift_word k) in
            Util.check_bool (k.Spec.name ^ " word > base") true (word > base))
          Spec.all);
    tc "enhancements never hurt" (fun () ->
        List.iter
          (fun (k : Spec.kernel) ->
            let base = Shift.Report.cycles (run_kernel ~mode:Mode.shift_word k) in
            let both =
              Shift.Report.cycles
                (run_kernel
                   ~mode:(Mode.Shift { granularity = Shift_mem.Granularity.Word; enh = Mode.enh_both })
                   k)
            in
            Util.check_bool (k.Spec.name ^ " enh <= base") true (both <= base))
          Spec.all);
  ]

let run_httpd ~mode ~file_size ~requests =
  Shift.Session.run ~policy:Httpd.policy ~io_cost:Httpd.io_cost
    ~setup:(Httpd.setup ~file_size ~requests)
    ~fuel:100_000_000 ~mode Httpd.program

let httpd_tests =
  [
    tc "serves every request and ships the bytes" (fun () ->
        let r = run_httpd ~mode:Mode.shift_word ~file_size:4096 ~requests:5 in
        Util.check_i64 "5 served" 5L (Util.exit_code r);
        Util.check_bool "bodies shipped" true
          (String.length r.Shift.Report.output > 5 * 4096));
    tc "missing file gets a 404" (fun () ->
        let r =
          Shift.Session.run ~policy:Httpd.policy ~io_cost:Httpd.io_cost
            ~setup:(fun w -> World.queue_request w "GET /nothing HTTP/1.0\r\n\r\n")
            ~fuel:100_000_000 ~mode:Mode.shift_word Httpd.program
        in
        Util.check_i64 "0 served" 0L (Util.exit_code r);
        Util.check_bool "404 sent" true (Str_exists.contains r.Shift.Report.output "404"));
    tc "directory traversal request trips H2" (fun () ->
        let r =
          Shift.Session.run ~policy:Httpd.policy ~io_cost:Httpd.io_cost
            ~setup:(fun w ->
              World.queue_request w "GET /../../etc/passwd HTTP/1.0\r\n\r\n")
            ~fuel:100_000_000 ~mode:Mode.shift_word Httpd.program
        in
        match r.Shift.Report.outcome with
        | Shift.Report.Alert a ->
            Alcotest.(check string) "H2" "H2" a.Shift_policy.Alert.policy
        | o -> Alcotest.failf "expected H2, got %a" Shift.Report.pp_outcome o);
    tc "server overhead is small (I/O dominates)" (fun () ->
        let base = run_httpd ~mode:Mode.Uninstrumented ~file_size:16384 ~requests:10 in
        let word = run_httpd ~mode:Mode.shift_word ~file_size:16384 ~requests:10 in
        let slowdown =
          float_of_int (Shift.Report.cycles word) /. float_of_int (Shift.Report.cycles base)
        in
        Util.check_bool
          (Printf.sprintf "slowdown %.3f < 1.10" slowdown)
          true
          (slowdown < 1.10 && slowdown >= 1.0));
    tc "request parsing is deterministic across granularities" (fun () ->
        let a = run_httpd ~mode:Mode.shift_word ~file_size:4096 ~requests:3 in
        let b = run_httpd ~mode:Mode.shift_byte ~file_size:4096 ~requests:3 in
        Util.check_string "same bytes" a.Shift.Report.output b.Shift.Report.output);
  ]

(* the worker-process personality: forked workers drain the shared
   request queue, the master reaps them and exits with the total *)
let worker_tests =
  let serve ?slice ~workers ~requests () =
    Httpd.serve ?slice ~mode:Mode.shift_word ~file_size:4096 ~requests ~workers
      ()
  in
  [
    tc "3 workers serve every request between them" (fun () ->
        let r = serve ~workers:3 ~requests:9 () in
        Util.check_i64 "9 served in total" 9L (Util.exit_code r);
        Util.check_bool "bodies shipped" true
          (String.length r.Shift.Report.output > 9 * 4096));
    tc "worker fleet matches the single-process server's output" (fun () ->
        let solo = run_httpd ~mode:Mode.shift_word ~file_size:4096 ~requests:6 in
        let fleet = serve ~workers:2 ~requests:6 () in
        Util.check_i64 "same served count" (Util.exit_code solo)
          (Util.exit_code fleet);
        Util.check_bool "same bytes on the wire" true
          (String.length solo.Shift.Report.output
          = String.length fleet.Shift.Report.output));
    tc "worker report is byte-identical at any slice" (fun () ->
        let bytes r = Shift.Results.to_string (Shift.Results.of_report r) in
        let a = serve ~workers:3 ~requests:9 () in
        let b = serve ~slice:977 ~workers:3 ~requests:9 () in
        Util.check_string "same report" (bytes a) (bytes b));
    tc "traversal request trips H2 inside a worker, naming it" (fun () ->
        let r =
          Shift.Session.exec
            ~config:
              (Shift.Session.Config.make ~policy:Httpd.policy
                 ~io_cost:Httpd.io_cost
                 ~setup:(fun w ->
                   World.queue_request w "GET /../../etc/passwd HTTP/1.0\r\n\r\n")
                 ~threading:
                   (Shift.Session.Config.Processes
                      { quantum = None; comm = Some "httpd" })
                 ())
            (Shift.Session.build ~mode:Mode.shift_word
               (Httpd.worker_program ~workers:2))
        in
        match r.Shift.Report.outcome with
        | Shift.Report.Alert a ->
            Alcotest.(check string) "H2" "H2" a.Shift_policy.Alert.policy;
            Util.check_bool "alert names a worker process" true
              (Str_exists.contains a.Shift_policy.Alert.message ", httpd]")
        | o -> Alcotest.failf "expected H2, got %a" Shift.Report.pp_outcome o);
  ]

let suites =
  [
    ("workloads.semantics", semantics_tests);
    ("workloads.safe-unsafe", safe_unsafe_tests);
    ("workloads.overhead", overhead_tests);
    ("workloads.httpd", httpd_tests);
    ("workloads.httpd-workers", worker_tests);
  ]
