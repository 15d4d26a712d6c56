(* Allocation bound: once warm, the engines keep register values
   unboxed and allocate (almost) nothing per simulated instruction.
   Minor-heap words are counted around a fixed stretch of
   [Session.advance], so the figure is deterministic and the test has
   no timing noise. *)

module S = Shift.Session
module Spec = Shift_workloads.Spec
module Mode = Shift_compiler.Mode

let warmup = 200_000
let stretch = 1_000_000

(* the budget for the default engine *)
let superblock_budget = 0.2

(* the interpreter allocates no more (measured <= 0.02 on these
   kernels, all of it in syscalls); an [int64] boxed per register write
   would cost over 2 words per instruction *)
let interpreter_budget = 0.05

let words_per_instr ~superblocks kname =
  let k = Option.get (Spec.find kname) in
  let image = S.build ~mode:Mode.shift_word k.Spec.program in
  let config = S.Config.make ~setup:(Spec.setup ~tainted:true k) ~superblocks () in
  let live = S.start ~config image in
  ignore (S.advance live ~budget:warmup);
  let f0 = S.fuel_left live in
  let w0 = Gc.minor_words () in
  ignore (S.advance live ~budget:stretch);
  let w1 = Gc.minor_words () in
  let ran = f0 - S.fuel_left live in
  Util.check_int (kname ^ " ran the whole stretch") stretch ran;
  (w1 -. w0) /. float ran

let bound ~superblocks ~budget kname =
  Util.tc
    (Printf.sprintf "%s word, superblocks %s: <= %.2f words/instr" kname
       (if superblocks then "on" else "off") budget)
    (fun () ->
      let w = words_per_instr ~superblocks kname in
      if w > budget then
        Alcotest.failf "%s allocates %.4f minor words per instruction (budget %.2f)"
          kname w budget)

let suites =
  [
    ( "alloc",
      List.concat_map
        (fun k ->
          [
            bound ~superblocks:true ~budget:superblock_budget k;
            bound ~superblocks:false ~budget:interpreter_budget k;
          ])
        [ "gzip"; "mcf" ] );
  ]
