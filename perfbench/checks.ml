(* Self-tests of the benchmark's own arithmetic and generators.  They
   run before every measurement (main.exe refuses to measure when one
   fails) and on their own through selftest.exe. *)

let approx a b = Float.abs (a -. b) < 1e-9

let seeded () =
  let lines seed =
    List.map
      (fun r -> (r.Gen.due, Shift.Protocol.(to_line (request_to_json r.Gen.env))))
      (Gen.requests ~seed ~rate:30. ~seconds:10.)
  in
  [
    ("same seed, same session order",
      Gen.spec_order ~seed:7 ~pass:3 = Gen.spec_order ~seed:7 ~pass:3);
    ("session order is a permutation of all sessions",
      List.sort compare (Gen.spec_order ~seed:7 ~pass:0)
      = List.sort compare Gen.spec_sessions);
    ("another seed, another order",
      Gen.spec_order ~seed:7 ~pass:0 <> Gen.spec_order ~seed:8 ~pass:0);
    ("same seed, same requests and arrival offsets", lines 11 = lines 11);
    ("another seed, other arrivals", lines 11 <> lines 12);
    ("rate x seconds requests, arrivals sorted inside the window",
      let rs = Gen.requests ~seed:3 ~rate:30. ~seconds:10. in
      List.length rs = 300
      && List.for_all (fun r -> r.Gen.due >= 0. && r.Gen.due < 10.) rs
      && List.map (fun r -> r.Gen.due) rs
         = List.sort compare (List.map (fun r -> r.Gen.due) rs));
    ("the offered work does not depend on the seed, only its order",
      let work seed =
        List.sort compare
          (List.map
             (fun r ->
               Shift.Protocol.(to_line (request_to_json { r.Gen.env with id = None })))
             (Gen.requests ~seed ~rate:30. ~seconds:10.))
      in
      work 1 = work 2);
    ("same seed, same resume pick",
      Gen.resume_pick ~seed:5 ~round:1 ~shape:2 ~files:20
      = Gen.resume_pick ~seed:5 ~round:1 ~shape:2 ~files:20);
  ]

let percentiles () =
  let xs n = List.init n (fun i -> float (i + 1)) in
  [
    ("p95 needs 200 samples", Util.samples_needed 0.95 = 200);
    ("p95 of 199 samples is not reported", Util.tail 0.95 (xs 199) = None);
    ("p95 of 200 samples leaves exactly ten beyond",
      Util.tail 0.95 (xs 200) = Some 190.);
    ("p95 of 1000 samples", Util.tail 0.95 (xs 1000) = Some 950.);
    ("p50 of 19 samples is not reported", Util.tail 0.5 (xs 19) = None);
    ("p50 of 20 samples", Util.tail 0.5 (xs 20) = Some 10.);
    ("p99 needs 1000 samples", Util.samples_needed 0.99 = 1000);
    ("median of an even count", approx (Util.median [ 4.; 1.; 3.; 2. ]) 2.5);
    ("order does not matter",
      Util.tail 0.95 (List.rev (xs 400)) = Util.tail 0.95 (xs 400));
  ]

let self_time () =
  let sp id name start stop parent =
    { Tracer.id; name; start; stop; parent; req = -1 }
  in
  let spans =
    [
      sp 0 "root" 0. 10. (-1);
      sp 1 "a" 1. 3. 0;
      sp 2 "b" 2. 5. 0;  (* overlaps a: the union is subtracted once *)
      sp 3 "a" 7. 8. 0;
      sp 4 "c" 9. 12. 0;  (* runs past the root: clipped *)
      sp 5 "d" 2.5 4. 2;  (* grandchild: only b loses it *)
    ]
  in
  let self = Tracer.self_by_name spans in
  [
    ("root self = 10 - |[1,5] u [7,8] u [9,10]|",
      approx (Tracer.self_of self "root") 4.);
    ("self of a layer sums its spans", approx (Tracer.self_of self "a") 3.);
    ("a child's time leaves its parent", approx (Tracer.self_of self "b") 1.5);
    ("leaf self = duration", approx (Tracer.self_of self "d") 1.5);
    ("without overlap, self times add up to the root's wall",
      let nested =
        Tracer.self_by_name
          [ sp 0 "root" 0. 10. (-1); sp 1 "x" 1. 4. 0; sp 2 "y" 5. 9. 0; sp 3 "z" 6. 7. 2 ]
      in
      approx
        (List.fold_left
           (fun acc n -> acc +. Tracer.self_of nested n)
           0. [ "root"; "x"; "y"; "z" ])
        10.);
    ("union of intervals",
      approx (Tracer.covered ~lo:0. ~hi:10. [ (1., 3.); (2., 5.); (4., 6.); (8., 9.) ]) 6.);
  ]

let open_loop () =
  [
    ("latency counts from the due time, not the send time",
      approx (Util.latency ~due:1.0 ~answered:1.5) 0.5);
    ("lag is how late the send was", approx (Util.lag ~due:1.0 ~sent:1.3) 0.3);
    ("an early send has no lag", approx (Util.lag ~due:1.0 ~sent:0.9) 0.);
    ("a generator within half a gap is valid",
      Util.generator_ok ~lags:(List.init 100 (fun _ -> 0.01)) ~mean_gap:0.033);
    ("a generator a gap behind is invalid",
      not (Util.generator_ok ~lags:(List.init 100 (fun _ -> 0.04)) ~mean_gap:0.033));
    ("one late send in a thousand is tolerated",
      Util.generator_ok
        ~lags:(0.5 :: List.init 999 (fun _ -> 0.))
        ~mean_gap:0.033);
  ]

(* BENCHMARK.json, read from the root of the checkout, names the
   metrics this program prints, with the same units, in the same order *)
let catalogue () =
  let module J = Shift.Results in
  let listed key =
    match J.of_string (Util.read_file "BENCHMARK.json") with
    | exception Sys_error _ -> None
    | Error _ -> None
    | Ok j -> (
        match J.member key j with
        | Some (J.List ms) ->
            Some
              (List.map
                 (fun m ->
                   match (J.member "name" m, J.member "unit" m) with
                   | Some (J.String n), Some (J.String u) -> (n, u)
                   | _ -> ("", ""))
                 ms)
        | _ -> None)
  in
  [
    ("BENCHMARK.json lists the end-to-end metrics",
      listed "end_to_end" = Some Metrics.e2e);
    ("BENCHMARK.json lists the per-layer metrics",
      listed "per_layer" = Some Metrics.per_layer);
  ]

let all () = seeded () @ percentiles () @ self_time () @ open_loop () @ catalogue ()

(* the names of the checks that fail *)
let failures () = List.filter_map (fun (n, ok) -> if ok then None else Some n) (all ())
