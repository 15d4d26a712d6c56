(* Golden fixtures: the Results JSON of a fixed set of runs, committed
   under test/golden/ and compared byte for byte by the tier-1 suite.
   The superblock on/off gates compare two engines with each other, so
   a bug both engines share passes them; these fixtures pin the
   simulated counters, outcome and cache statistics themselves. *)

module Mode = Shift_compiler.Mode
module Spec = Shift_workloads.Spec
module Case = Shift_attacks.Attack_case
module Attacks = Shift_attacks.Attacks

(* small inputs keep the whole matrix fast *)
let small_size (k : Spec.kernel) = max 64 (k.Spec.default_size / 8)

let modes =
  [ ("uninstr", Mode.Uninstrumented); ("word", Mode.shift_word); ("byte", Mode.shift_byte) ]

(* "GNU Gzip (1.2.4)" -> "gnu-gzip-1-2-4" *)
let slug s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' -> Buffer.add_char b c
      | 'A' .. 'Z' -> Buffer.add_char b (Char.lowercase_ascii c)
      | _ ->
          let n = Buffer.length b in
          if n > 0 && Buffer.nth b (n - 1) <> '-' then Buffer.add_char b '-')
    s;
  let s = Buffer.contents b in
  if String.ends_with ~suffix:"-" s then String.sub s 0 (String.length s - 1) else s

let kernel_runs =
  List.concat_map
    (fun (k : Spec.kernel) ->
      List.map
        (fun (mname, mode) ->
          ( Printf.sprintf "kernel-%s-%s" k.Spec.name mname,
            fun () ->
              Shift.Session.run ~policy:Shift_policy.Policy.default
                ~setup:(Spec.setup ~size:(small_size k) ~tainted:true k)
                ~fuel:100_000_000 ~mode k.Spec.program ))
        modes)
    Spec.all

let attack_runs =
  let mode = Mode.shift_word in
  List.concat_map
    (fun (c : Case.t) ->
      List.map
        (fun (iname, input) ->
          ( Printf.sprintf "attack-%s-%s" (slug c.Case.program_name) iname,
            fun () -> Case.run ~mode ~input c ))
        [ ("benign", c.Case.benign); ("exploit", c.Case.exploit) ])
    (Attacks.all @ Attacks.multiproc @ Attacks.sidechannel @ Attacks.extended ~mode)

(* (fixture name, run) — the file is [<name>.json] *)
let all = kernel_runs @ attack_runs

let render r = Shift.Results.to_string (Shift.Results.of_report r) ^ "\n"
