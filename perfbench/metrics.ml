(* The metric catalogue.  Every workload prints every end-to-end metric
   (untraced run) or every per-layer metric (traced run); a per-layer
   metric of a layer the workload never enters reads 0.  BENCHMARK.json
   lists the same names and units, which a self-test checks. *)

let e2e =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("sim_mips", "MIPS");
    ("alloc_words_per_instr", "words/instr");
    ("op_p50_ms", "ms");
    ("op_p95_ms", "ms");
  ]

(* checkpoint-resume session shapes and snapshot phases *)
let shapes = [ "mcf_word"; "gzip_byte"; "traced" ]
let phases = [ "capture"; "encode"; "write"; "read"; "parse"; "decode"; "restore" ]
let cell_kernels = [ "gzip"; "mcf" ]
let cells = [ "base"; "uninstr"; "nosb"; "hwtrace"; "flowtrace" ]
let kinds = [ "run"; "attack"; "trace"; "leak" ]

let per_layer =
  [
    ("compiler.ms_per_image", "ms");
    ("compiler.share", "frac");
    ("session.load_ms", "ms");
    ("machine.ns_per_instr.word", "ns");
    ("machine.ns_per_instr.byte", "ns");
    ("machine.alloc_words_per_instr", "words/instr");
    ("superblock.hit_rate", "frac");
    ("superblock.fallback_frac", "frac");
    ("superblock.invalidations", "count");
  ]
  @ List.concat_map
      (fun k ->
        List.concat_map
          (fun c ->
            [
              (Printf.sprintf "cell.%s.%s_ns" k c, "ns");
              (Printf.sprintf "cell.%s.%s_words" k c, "words/instr");
            ])
          cells)
      cell_kernels
  @ [
      ("flowtrace.ns_per_instr", "ns");
      ("leak.ms_per_probe", "ms");
      ("serve.loop_blocked_ms", "ms/s");
      ("serve.gen_lag_ms", "ms");
    ]
  @ List.concat_map
      (fun p ->
        List.map
          (fun s -> (Printf.sprintf "snapshot.%s_ms.%s.p50" p s, "ms"))
          shapes
        @ [ (Printf.sprintf "snapshot.%s_ms.p95" p, "ms") ])
      phases
  @ List.map (fun s -> (Printf.sprintf "snapshot.kb.%s" s, "KB")) shapes
  @ [
      ("ckpt.ckpt_s", "s");
      ("ckpt.resume_s", "s");
      ("ckpt.wall_s", "s");
      ("results.report_encode_us", "us");
      ("protocol.decode_us", "us");
      ("protocol.encode_us", "us");
      ("sched.queue_wait_ms.p50", "ms");
      ("sched.queue_wait_ms.p95", "ms");
      ("sched.slice_us.p50", "us");
      ("sched.slice_us.p95", "us");
      ("sched.worker_busy_frac", "frac");
      ("sched.migrations", "count");
      ("sched.crashed", "count");
    ]
  @ List.map (fun k -> (Printf.sprintf "req_p50_ms.%s" k, "ms")) kinds
  @ [
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("sim.instructions", "count");
      ("sim.cycles", "count");
      ("sim.cache_hit_rate", "frac");
      ("trace.overhead_frac", "frac");
      ("trace.unaccounted_frac", "frac");
      ("trace.spans", "count");
    ]

(* measured values by name *)
type table = (string, float) Hashtbl.t

let table () : table = Hashtbl.create 128
let set (t : table) name v = Hashtbl.replace t name v

(* Absent per-layer names read 0.  An end-to-end metric that was not
   measured, or measured as no number, counts a failed check: a broken
   measurement must not read as a perfect value. *)
let render ?tally catalogue (t : table) =
  List.iter
    (fun name ->
      if not (List.mem_assoc name catalogue) then
        invalid_arg ("Metrics.render: unknown metric " ^ name))
    (Hashtbl.fold (fun k _ acc -> k :: acc) t []);
  List.map
    (fun (name, unit_) ->
      let v = Hashtbl.find_opt t name in
      Option.iter
        (fun tally ->
          Util.check tally
            (match v with Some x -> Float.is_finite x | None -> false)
            (name ^ " was measured"))
        tally;
      Util.m name unit_
        (match v with Some x when Float.is_finite x -> x | _ -> 0.))
    catalogue

let render_e2e tally t = render ~tally e2e t
