(* Seeded inputs for the three workloads.  The seed fixes session
   order, the serve request mix and arrival times, and which checkpoint
   each session resumes from; kernel inputs come from the kernels' own
   generators, so the simulated counters of a session never depend on
   the seed. *)

module Spec = Shift_workloads.Spec
module Mode = Shift_compiler.Mode
module Case = Shift_attacks.Attack_case
module Attacks = Shift_attacks.Attacks
module P = Shift.Protocol
module Backend = Shift_tracking.Backend

let modes = [ ("word", Mode.shift_word); ("byte", Mode.shift_byte) ]

(* ---------- spec-solo ---------- *)

(* every kernel in both taint granularities *)
let spec_sessions =
  List.concat_map
    (fun (k : Spec.kernel) -> List.map (fun (m, _) -> (k.Spec.name, m)) modes)
    Spec.all

let spec_order ~seed ~pass = Util.shuffle (Util.rng seed pass) spec_sessions

(* ---------- serve-open ---------- *)

type expect =
  | Alert of string  (** exploit: an alert naming this policy *)
  | Clean  (** benign case or kernel run: the guest exits, nothing fires *)
  | Leaks of bool  (** leak probe: the verdict's [leak] flag *)

type request = {
  idx : int;
  due : float;  (** seconds after the stream starts *)
  kind : string;
  env : P.envelope;
  expect : expect;
}

(* the attack cases a request may name: every Table-2 row plus the
   multi-process cases, by full program name (prefixes such as "gzip"
   are ambiguous with kernel names) *)
let cases = Attacks.all @ Attacks.multiproc

(* Request mix, as shares of the stream.  No record of real traffic
   exists to copy, so the rule is that each kind takes an equal share
   of the daemon's time: a kind's share is proportional to 1 / its
   cost, the cost being its median latency in the traced run of this
   workload, where queueing is negligible (req_p50_ms.{attack,trace,run,
   leak} = 7.3, 6.8, 21.9 and 37.8 ms, seed 1, on the 2-core host the
   benchmark was tuned on).  Cheap kinds are frequent and dear ones
   rare; none dominates the daemon's time. *)
let mix = [ ("attack", 0.39); ("trace", 0.41); ("run", 0.13); ("leak", 0.07) ]
let run_size = 64
let ring = 4096

let deck n =
  let counts =
    List.map (fun (k, share) -> (k, int_of_float (Float.round (share *. float n)))) mix
  in
  let assigned = List.fold_left (fun a (_, c) -> a + c) 0 counts in
  (* rounding slack goes to the most common kind *)
  List.concat_map
    (fun (k, c) ->
      let c = if k = "attack" then c + (n - assigned) else c in
      List.init (max 0 c) (fun _ -> k))
    counts

let envelope ~idx ?migrate_every request =
  {
    P.id = Some (Printf.sprintf "r%d" idx);
    tenant = None;
    deadline = None;
    migrate_every;
    request;
  }

(* [n] draws spread as evenly as possible over [options]: every option
   [n / k] times, the first [n mod k] of them once more, shuffled.  The
   work a run offers then does not depend on the seed; its order and
   arrival times do. *)
let stratified st n options =
  let k = List.length options in
  let full = List.concat (List.init (n / k) (fun _ -> options)) in
  let rest = List.filteri (fun i _ -> i < n mod k) options in
  Util.shuffle st (full @ rest)

let product xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(* the parameter space of each kind; run requests also draw a flag,
   each a third of them: plain, checkpoint-migrated every two slices, or
   the coproc backend *)
let case_params = product cases (product [ false; true ] (List.map snd modes))

let run_params = product Spec.all (List.map snd modes)

let run_flags = [ `Plain; `Migrate; `Coproc ]
let leak_params = [ ("AES-table", true); ("AES-ct", false) ]

let attack_request ~idx ~trace (c, (benign, mode)) =
  let expect = if benign then Clean else Alert c.Case.expected_policy in
  let request =
    if trace then
      P.Trace
        {
          image = c.Case.program_name;
          mode;
          benign;
          ring;
          only = None;
          superblocks = true;
          backend = Backend.Nat;
        }
    else
      P.Attack
        { case = c.Case.program_name; mode; benign; superblocks = true; backend = Backend.Nat }
  in
  (envelope ~idx request, expect)

let run_request ~idx ((k : Spec.kernel), mode) flag =
  let migrate_every = if flag = `Migrate then Some 2 else None in
  let backend = if flag = `Coproc then Backend.Coproc else Backend.Nat in
  ( envelope ~idx ?migrate_every
      (P.Run
         {
           kernel = k.Spec.name;
           mode;
           size = Some run_size;
           safe = false;
           superblocks = true;
           backend;
         }),
    Clean )

let leak_request ~idx (case, leaks) =
  ( envelope ~idx
      (P.Leak
         {
           case;
           mode = Mode.shift_word;
           clause = Shift.Leak.Ct_seq;
           variants = 4;
           superblocks = true;
           backend = Backend.Nat;
         }),
    Leaks leaks )

(* [n] requests over [seconds]: a shuffled deck of the fixed mix, each
   kind's parameters drawn stratified, at arrival times of a Poisson
   process conditioned on [n] arrivals (sorted uniform offsets) *)
let requests ~seed ~rate ~seconds =
  let n = int_of_float (Float.round (rate *. seconds)) in
  let st = Util.rng seed 1 in
  let kinds = Util.shuffle st (deck n) in
  let count k = List.length (List.filter (( = ) k) kinds) in
  let queue l = ref l in
  let take q =
    match !q with
    | x :: rest ->
        q := rest;
        x
    | [] -> assert false
  in
  let attacks = queue (stratified st (count "attack") case_params) in
  let traces = queue (stratified st (count "trace") case_params) in
  let runs = queue (stratified st (count "run") run_params) in
  (* each kernel/mode pair cycles through the flags, so which kernels
     migrate or use the coproc backend does not depend on the seed *)
  let key ((k : Spec.kernel), mode) = (k.Spec.name, Mode.to_string mode) in
  let index = List.mapi (fun i p -> (key p, i)) run_params in
  let seen = Hashtbl.create 16 in
  let flag p =
    let n = Option.value ~default:0 (Hashtbl.find_opt seen (key p)) in
    Hashtbl.replace seen (key p) (n + 1);
    List.nth run_flags ((n + List.assoc (key p) index) mod List.length run_flags)
  in
  let leaks = queue (stratified st (count "leak") leak_params) in
  let dues =
    List.init n (fun _ -> Random.State.float st seconds) |> List.sort compare
  in
  List.mapi
    (fun idx (kind, due) ->
      let env, expect =
        match kind with
        | "attack" -> attack_request ~idx ~trace:false (take attacks)
        | "trace" -> attack_request ~idx ~trace:true (take traces)
        | "run" ->
            let p = take runs in
            run_request ~idx p (flag p)
        | "leak" -> leak_request ~idx (take leaks)
        | k -> invalid_arg ("Gen.requests: " ^ k)
      in
      { idx; due; kind; env; expect })
    (List.combine kinds dues)

(* requests whose replies are also compared byte-for-byte with an
   in-process solo run *)
let solo_sample ~seed reqs ~count =
  let st = Util.rng seed 2 in
  let by_kind k = List.filter (fun r -> r.kind = k) reqs in
  let pick_some l c = List.filteri (fun i _ -> i < c) (Util.shuffle st l) in
  (* at least one of each kind, the rest at random *)
  let firsts = List.concat_map (fun (k, _) -> pick_some (by_kind k) 1) mix in
  let rest =
    pick_some
      (List.filter (fun r -> not (List.memq r firsts)) reqs)
      (count - List.length firsts)
  in
  List.sort (fun a b -> compare a.idx b.idx) (firsts @ rest)

(* ---------- checkpoint-resume ---------- *)

(* which of a session's [files] checkpoints the resume phase restarts *)
let resume_pick ~seed ~round ~shape ~files =
  Random.State.int (Util.rng seed (1000 + (round * 16) + shape)) files
