(* The pipeline timing model and the cache model, in isolation. *)

module Pipeline = Shift_machine.Pipeline
module Cache = Shift_machine.Cache

let tc = Util.tc

let issue ?(executing = true) ?(reads = []) ?(writes = []) ?(pred_writes = [])
    ?(qp = Shift_isa.Pred.p0) ?(is_mem = false) ?(latency = 1) p =
  Pipeline.issue p ~executing ~reads:(Array.of_list reads)
    ~writes:(Array.of_list writes)
    ~pred_writes:(Array.of_list pred_writes)
    ~qp ~is_mem ~latency

let pipeline_tests =
  [
    tc "six independent instructions fit in one cycle" (fun () ->
        let p = Pipeline.create () in
        for k = 1 to 6 do
          issue p ~writes:[ k ]
        done;
        Util.check_int "one group" 0 (Pipeline.cycles p));
    tc "the seventh instruction starts a new cycle" (fun () ->
        let p = Pipeline.create () in
        for k = 1 to 7 do
          issue p ~writes:[ k ]
        done;
        Util.check_int "second group" 1 (Pipeline.cycles p));
    tc "a RAW dependency stalls the consumer" (fun () ->
        let p = Pipeline.create () in
        issue p ~writes:[ 5 ] ~latency:1;
        issue p ~reads:[ 5 ] ~writes:[ 6 ];
        Util.check_int "one cycle later" 1 (Pipeline.cycles p));
    tc "load-use latency is visible" (fun () ->
        let p = Pipeline.create () in
        issue p ~writes:[ 5 ] ~is_mem:true ~latency:2;
        issue p ~reads:[ 5 ] ~writes:[ 6 ];
        Util.check_int "two cycles later" 2 (Pipeline.cycles p));
    tc "only two memory operations per cycle" (fun () ->
        let p = Pipeline.create () in
        issue p ~is_mem:true ~writes:[ 1 ] ~latency:2;
        issue p ~is_mem:true ~writes:[ 2 ] ~latency:2;
        issue p ~is_mem:true ~writes:[ 3 ] ~latency:2;
        Util.check_int "third port use spills over" 1 (Pipeline.cycles p));
    tc "predicated-off instructions skip their source stalls" (fun () ->
        let p = Pipeline.create () in
        issue p ~writes:[ 5 ] ~is_mem:true ~latency:14;
        (* a squashed consumer must not wait 14 cycles for r5 *)
        issue p ~executing:false ~reads:[ 5 ] ~writes:[ 6 ] ~qp:1;
        Util.check_bool "no stall" true (Pipeline.cycles p < 2));
    tc "predicate producers gate predicated consumers" (fun () ->
        let p = Pipeline.create () in
        issue p ~pred_writes:[ 3 ];
        issue p ~executing:true ~qp:3 ~writes:[ 6 ];
        Util.check_int "waits for p3" 1 (Pipeline.cycles p));
    tc "r0 never creates dependencies" (fun () ->
        let p = Pipeline.create () in
        issue p ~writes:[ Shift_isa.Reg.zero ] ~latency:5;
        issue p ~reads:[ Shift_isa.Reg.zero ] ~writes:[ 6 ];
        Util.check_int "no stall through r0" 0 (Pipeline.cycles p));
    tc "redirect closes the issue group" (fun () ->
        let p = Pipeline.create () in
        issue p ~writes:[ 1 ];
        Pipeline.redirect p ~penalty:1;
        issue p ~writes:[ 2 ];
        Util.check_int "penalty applied" 1 (Pipeline.cycles p));
    tc "stall charges dead cycles" (fun () ->
        let p = Pipeline.create () in
        Pipeline.stall p 100;
        Util.check_int "hundred" 100 (Pipeline.cycles p));
  ]

(* packed addresses; region-0 addresses below 2^40 pack to themselves *)
let addr k = 0x10000 + k

let cache_tests =
  [
    tc "first access misses, second hits" (fun () ->
        let c = Cache.create () in
        Util.check_bool "miss" false (Cache.access c (addr 0));
        Util.check_bool "hit" true (Cache.access c (addr 0));
        Util.check_int "counts" 1 (Cache.hits c);
        Util.check_int "counts" 1 (Cache.misses c));
    tc "same line hits" (fun () ->
        let c = Cache.create () in
        ignore (Cache.access c (addr 0));
        Util.check_bool "same 64B line" true (Cache.access c (addr 63));
        Util.check_bool "next line misses" false (Cache.access c (addr 64)));
    tc "direct-mapped conflict evicts" (fun () ->
        let c = Cache.create ~size_kb:16 ~line_bytes:64 () in
        (* 16KB direct mapped: addresses 16KB apart conflict *)
        ignore (Cache.access c (addr 0));
        ignore (Cache.access c (addr 0 + (16 * 1024)));
        Util.check_bool "evicted" false (Cache.access c (addr 0)));
    tc "working set under the capacity stays resident" (fun () ->
        let c = Cache.create ~size_kb:16 ~line_bytes:64 () in
        for k = 0 to 127 do
          ignore (Cache.access c (0x40000 + (k * 64)))
        done;
        let before = Cache.hits c in
        for k = 0 to 127 do
          ignore (Cache.access c (0x40000 + (k * 64)))
        done;
        Util.check_int "all hits on the second pass" (before + 128) (Cache.hits c));
    tc "larger footprint misses more (byte-vs-word bitmap effect)" (fun () ->
        let sweep stride count =
          let c = Cache.create () in
          for round = 1 to 2 do
            ignore round;
            for k = 0 to count - 1 do
              ignore (Cache.access c (0x80000 + (k * stride)))
            done
          done;
          Cache.misses c
        in
        (* same number of accesses: 8 KB footprint fits, 64 KB thrashes *)
        Util.check_bool "8x footprint misses more" true (sweep 512 128 > sweep 64 128));
  ]

let suites = [ ("timing.pipeline", pipeline_tests); ("timing.cache", cache_tests) ]
