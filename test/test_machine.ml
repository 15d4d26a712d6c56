open Shift_isa
module Cpu = Shift_machine.Cpu
module Fault = Shift_machine.Fault

let tc = Util.tc
let m ?qp op = Program.I (Instr.mk ?qp op)
let lbl l = Program.Label l

let valid_addr = Shift_mem.Addr.in_region 1 0x10000L
let invalid_addr = Int64.shift_left 1L 45

let build items = Program.assemble items

let run ?(fuel = 100_000) items =
  let cpu = Cpu.create (build items) in
  let outcome = Cpu.run ~fuel cpu in
  (cpu, outcome)

let expect_exit msg code (_, outcome) =
  match outcome with
  | Cpu.Exited v -> Util.check_i64 msg code v
  | Cpu.Faulted (f, ip) -> Alcotest.failf "%s: fault %s at %d" msg (Fault.to_string f) ip
  | Cpu.Out_of_fuel -> Alcotest.failf "%s: out of fuel" msg

let expect_fault msg fault (_, outcome) =
  match outcome with
  | Cpu.Faulted (f, _) ->
      Alcotest.(check string) msg (Fault.to_string fault) (Fault.to_string f)
  | Cpu.Exited v -> Alcotest.failf "%s: exited %Ld" msg v
  | Cpu.Out_of_fuel -> Alcotest.failf "%s: out of fuel" msg

(* conjure a register with a set NaT bit, the Figure-5 way *)
let make_nat r =
  [ m (Instr.Movi (r, invalid_addr));
    m (Instr.Ld { width = Instr.W8; dst = r; addr = r; spec = true; fill = false }) ]

let arith_tests =
  [
    tc "arithmetic and halt" (fun () ->
        run
          [
            m (Instr.Movi (1, 6L));
            m (Instr.Movi (2, 7L));
            m (Instr.Arith (Instr.Mul, Reg.ret, 1, Instr.R 2));
            m Instr.Halt;
          ]
        |> expect_exit "6*7" 42L);
    tc "immediate operands" (fun () ->
        run
          [
            m (Instr.Movi (1, 10L));
            m (Instr.Arith (Instr.Sub, Reg.ret, 1, Instr.Imm 3L));
            m Instr.Halt;
          ]
        |> expect_exit "10-3" 7L);
    tc "shifts" (fun () ->
        run
          [
            m (Instr.Movi (1, -8L));
            m (Instr.Arith (Instr.Shr, 2, 1, Instr.Imm 60L));
            m (Instr.Arith (Instr.Sar, 3, 1, Instr.Imm 2L));
            m (Instr.Arith (Instr.Add, Reg.ret, 2, Instr.R 3));
            m Instr.Halt;
          ]
        |> expect_exit "logical+arith shift" (Int64.add 15L (-2L)));
    tc "division semantics" (fun () ->
        run
          [
            m (Instr.Movi (1, -7L));
            m (Instr.Arith (Instr.Div, Reg.ret, 1, Instr.Imm 2L));
            m Instr.Halt;
          ]
        |> expect_exit "-7/2 truncates" (-3L));
    tc "division by zero faults" (fun () ->
        run
          [ m (Instr.Movi (1, 7L)); m (Instr.Arith (Instr.Div, 2, 1, Instr.Imm 0L)); m Instr.Halt ]
        |> expect_fault "div0" Fault.Div_by_zero);
    tc "r0 is immutable" (fun () ->
        run
          [
            m (Instr.Movi (Reg.zero, 99L));
            m (Instr.Arith (Instr.Add, Reg.ret, Reg.zero, Instr.Imm 1L));
            m Instr.Halt;
          ]
        |> expect_exit "r0 stays zero" 1L);
    tc "extr masks the field width" (fun () ->
        run
          [
            m (Instr.Movi (1, 0x0123_4567_89ab_cdefL));
            m (Instr.Extr { dst = Reg.ret; src = 1; pos = 8; len = 12 });
            m Instr.Halt;
          ]
        |> expect_exit "12-bit field" 0xbcdL);
    tc "extr with len=64 keeps the full word" (fun () ->
        (* regression: 1 lsl (64 land 63) = 1 gave a zero mask, so a
           full-width extract returned 0 instead of the source *)
        run
          [
            m (Instr.Movi (1, -2L));
            m (Instr.Extr { dst = Reg.ret; src = 1; pos = 0; len = 64 });
            m Instr.Halt;
          ]
        |> expect_exit "full width, sign bit intact" (-2L));
  ]

let nat_tests =
  [
    tc "speculative load from invalid address sets NaT" (fun () ->
        let cpu, outcome =
          run (make_nat 5 @ [ m Instr.Halt ])
        in
        (match outcome with Cpu.Exited _ -> () | _ -> Alcotest.fail "should halt");
        Util.check_bool "nat set" true (Cpu.get_nat cpu 5);
        Util.check_i64 "value zeroed" 0L (Cpu.get_value cpu 5));
    tc "NaT propagates through arithmetic" (fun () ->
        let cpu, _ =
          run
            (make_nat 5
            @ [
                m (Instr.Movi (6, 10L));
                m (Instr.Arith (Instr.Add, 7, 6, Instr.R 5));
                m Instr.Halt;
              ])
        in
        Util.check_bool "propagated" true (Cpu.get_nat cpu 7);
        Util.check_i64 "value still computed" 10L (Cpu.get_value cpu 7));
    tc "xor r, r clears the NaT (clear idiom)" (fun () ->
        let cpu, _ =
          run (make_nat 5 @ [ m (Instr.Arith (Instr.Xor, 5, 5, Instr.R 5)); m Instr.Halt ])
        in
        Util.check_bool "cleared" false (Cpu.get_nat cpu 5);
        Util.check_i64 "zero" 0L (Cpu.get_value cpu 5));
    tc "plain load clears NaT" (fun () ->
        let cpu, _ =
          run
            (make_nat 5
            @ [
                m (Instr.Movi (6, valid_addr));
                m (Instr.Ld { width = Instr.W8; dst = 5; addr = 6; spec = false; fill = false });
                m Instr.Halt;
              ])
        in
        Util.check_bool "cleared" false (Cpu.get_nat cpu 5));
    tc "mov copies the NaT" (fun () ->
        let cpu, _ = run (make_nat 5 @ [ m (Instr.Mov (6, 5)); m Instr.Halt ]) in
        Util.check_bool "copied" true (Cpu.get_nat cpu 6));
    tc "tnat discriminates" (fun () ->
        let cpu, _ =
          run
            (make_nat 5
            @ [
                m (Instr.Tnat { pt = 1; pf = 2; src = 5 });
                m (Instr.Movi (Reg.ret, 0L));
                m ~qp:1 (Instr.Movi (Reg.ret, 1L));
                m Instr.Halt;
              ])
        in
        Util.check_i64 "detected" 1L (Cpu.get_value cpu Reg.ret));
    tc "baseline cmp with NaT clears both predicates" (fun () ->
        let cpu, _ =
          run
            (make_nat 5
            @ [
                (* make p1 and p2 true beforehand to observe the clear *)
                m (Instr.Cmp { cond = Cond.Eq; pt = 1; pf = 2; src1 = Reg.zero; src2 = Instr.Imm 0L; taint_aware = false });
                m (Instr.Cmp { cond = Cond.Eq; pt = 1; pf = 2; src1 = 5; src2 = Instr.Imm 0L; taint_aware = false });
                m (Instr.Movi (Reg.ret, 0L));
                m ~qp:1 (Instr.Movi (Reg.ret, 1L));
                m ~qp:2 (Instr.Movi (Reg.ret, 2L));
                m Instr.Halt;
              ])
        in
        Util.check_i64 "both cleared" 0L (Cpu.get_value cpu Reg.ret));
    tc "taint-aware cmp compares the values" (fun () ->
        let cpu, _ =
          run
            (make_nat 5
            @ [
                m (Instr.Cmp { cond = Cond.Eq; pt = 1; pf = 2; src1 = 5; src2 = Instr.Imm 0L; taint_aware = true });
                m (Instr.Movi (Reg.ret, 0L));
                m ~qp:1 (Instr.Movi (Reg.ret, 1L));
                m Instr.Halt;
              ])
        in
        (* the NaT source's value is 0, so eq 0 holds *)
        Util.check_i64 "compared" 1L (Cpu.get_value cpu Reg.ret));
    tc "setnat/clrnat" (fun () ->
        let cpu, _ =
          run
            [
              m (Instr.Movi (5, 42L));
              m (Instr.Setnat 5);
              m (Instr.Mov (6, 5));
              m (Instr.Clrnat 5);
              m Instr.Halt;
            ]
        in
        Util.check_bool "set propagated" true (Cpu.get_nat cpu 6);
        Util.check_bool "cleared" false (Cpu.get_nat cpu 5);
        Util.check_i64 "value preserved" 42L (Cpu.get_value cpu 5));
  ]

let nat_fault_tests =
  [
    tc "load through NaT address faults (L1)" (fun () ->
        run
          (make_nat 5
          @ [ m (Instr.Ld { width = Instr.W8; dst = 6; addr = 5; spec = false; fill = false }); m Instr.Halt ])
        |> expect_fault "L1" (Fault.Nat_consumption Fault.Load_address));
    tc "store through NaT address faults (L2)" (fun () ->
        run
          (make_nat 5
          @ [ m (Instr.St { width = Instr.W8; addr = 5; src = Reg.zero; spill = false }); m Instr.Halt ])
        |> expect_fault "L2" (Fault.Nat_consumption Fault.Store_address));
    tc "plain store of a NaT register faults" (fun () ->
        run
          (make_nat 5
          @ [
              m (Instr.Movi (6, valid_addr));
              m (Instr.St { width = Instr.W8; addr = 6; src = 5; spill = false });
              m Instr.Halt;
            ])
        |> expect_fault "store value" (Fault.Nat_consumption Fault.Store_value));
    tc "indirect branch through NaT faults (L3)" (fun () ->
        run (make_nat 5 @ [ m (Instr.Br_reg 5); m Instr.Halt ])
        |> expect_fault "L3" (Fault.Nat_consumption Fault.Branch_target));
    tc "indirect call through NaT faults (L3)" (fun () ->
        run (make_nat 5 @ [ m (Instr.Call_reg 5); m Instr.Halt ])
        |> expect_fault "L3" (Fault.Nat_consumption Fault.Call_target));
    tc "non-speculative load from invalid address faults" (fun () ->
        run
          [
            m (Instr.Movi (5, invalid_addr));
            m (Instr.Ld { width = Instr.W8; dst = 6; addr = 5; spec = false; fill = false });
            m Instr.Halt;
          ]
        |> expect_fault "invalid" (Fault.Invalid_address invalid_addr));
    tc "null dereference faults" (fun () ->
        run
          [
            m (Instr.Movi (5, 0L));
            m (Instr.Ld { width = Instr.W8; dst = 6; addr = 5; spec = false; fill = false });
            m Instr.Halt;
          ]
        |> expect_fault "null" (Fault.Invalid_address 0L));
  ]

let spill_tests =
  [
    tc "spill/fill round-trips the NaT through UNAT" (fun () ->
        let cpu, _ =
          run
            (make_nat 5
            @ [
                m (Instr.Movi (6, valid_addr));
                m (Instr.St { width = Instr.W8; addr = 6; src = 5; spill = true });
                m (Instr.Ld { width = Instr.W8; dst = 7; addr = 6; spec = false; fill = true });
                m (Instr.Ld { width = Instr.W8; dst = 8; addr = 6; spec = false; fill = false });
                m Instr.Halt;
              ])
        in
        Util.check_bool "fill restores NaT" true (Cpu.get_nat cpu 7);
        Util.check_bool "plain load strips NaT" false (Cpu.get_nat cpu 8));
    tc "spill of a clean register clears the UNAT bit" (fun () ->
        let cpu, _ =
          run
            (make_nat 5
            @ [
                m (Instr.Movi (6, valid_addr));
                m (Instr.St { width = Instr.W8; addr = 6; src = 5; spill = true });
                m (Instr.Movi (7, 9L));
                m (Instr.St { width = Instr.W8; addr = 6; src = 7; spill = true });
                m (Instr.Ld { width = Instr.W8; dst = 8; addr = 6; spec = false; fill = true });
                m Instr.Halt;
              ])
        in
        Util.check_bool "clean now" false (Cpu.get_nat cpu 8);
        Util.check_i64 "value" 9L (Cpu.get_value cpu 8));
    tc "UNAT is preserved across calls" (fun () ->
        (* caller spills a NaT reg, callee clobbers the same UNAT bit
           via its own spill at a colliding address, caller's fill must
           still restore the NaT *)
        let collide = Int64.add valid_addr 512L in
        let cpu, _ =
          run
            (make_nat 5
            @ [
                m (Instr.Movi (6, valid_addr));
                m (Instr.St { width = Instr.W8; addr = 6; src = 5; spill = true });
                m (Instr.Call "callee");
                m (Instr.Ld { width = Instr.W8; dst = 7; addr = 6; spec = false; fill = true });
                m Instr.Halt;
                lbl "callee";
                m (Instr.Movi (9, collide));
                m (Instr.Movi (10, 1L));
                m (Instr.St { width = Instr.W8; addr = 9; src = 10; spill = true });
                m Instr.Ret;
              ])
        in
        Util.check_bool "NaT survives the call" true (Cpu.get_nat cpu 7));
  ]

let control_tests =
  [
    tc "chk.s branches to recovery on NaT" (fun () ->
        run
          (make_nat 5
          @ [
              m (Instr.Chk_s { src = 5; recovery = "recover" });
              m (Instr.Movi (Reg.ret, 1L));
              m Instr.Halt;
              lbl "recover";
              m (Instr.Movi (Reg.ret, 2L));
              m Instr.Halt;
            ])
        |> expect_exit "recovered" 2L);
    tc "chk.s falls through when clean" (fun () ->
        run
          [
            m (Instr.Movi (5, 3L));
            m (Instr.Chk_s { src = 5; recovery = "recover" });
            m (Instr.Movi (Reg.ret, 1L));
            m Instr.Halt;
            lbl "recover";
            m (Instr.Movi (Reg.ret, 2L));
            m Instr.Halt;
          ]
        |> expect_exit "fell through" 1L);
    tc "call and ret" (fun () ->
        run
          [
            m (Instr.Call "double");
            m Instr.Halt;
            lbl "double";
            m (Instr.Movi (1, 21L));
            m (Instr.Arith (Instr.Add, Reg.ret, 1, Instr.R 1));
            m Instr.Ret;
          ]
        |> expect_exit "callret" 42L);
    tc "indirect call through lea" (fun () ->
        run
          [
            m (Instr.Lea (5, "target"));
            m (Instr.Call_reg 5);
            m Instr.Halt;
            lbl "target";
            m (Instr.Movi (Reg.ret, 7L));
            m Instr.Ret;
          ]
        |> expect_exit "indirect" 7L);
    tc "predication skips instructions" (fun () ->
        run
          [
            m (Instr.Movi (1, 5L));
            m (Instr.Cmp { cond = Cond.Lt; pt = 1; pf = 2; src1 = 1; src2 = Instr.Imm 10L; taint_aware = false });
            m (Instr.Movi (Reg.ret, 0L));
            m ~qp:1 (Instr.Movi (Reg.ret, 11L));
            m ~qp:2 (Instr.Movi (Reg.ret, 22L));
            m Instr.Halt;
          ]
        |> expect_exit "predicated" 11L);
    tc "ret with empty stack faults" (fun () ->
        run [ m Instr.Ret ] |> expect_fault "underflow" Fault.Call_stack_underflow);
    tc "runaway loop runs out of fuel" (fun () ->
        let _, outcome = run ~fuel:1000 [ lbl "spin"; m (Instr.Br "spin") ] in
        match outcome with
        | Cpu.Out_of_fuel -> ()
        | _ -> Alcotest.fail "expected fuel exhaustion");
    tc "indirect branch outside code faults" (fun () ->
        run [ m (Instr.Movi (5, 1234L)); m (Instr.Br_reg 5) ]
        |> expect_fault "bad target" (Fault.Invalid_branch 1234L));
  ]

let pipeline_tests =
  [
    tc "independent instructions co-issue" (fun () ->
        let cpu_indep, _ =
          run (List.init 6 (fun k -> m (Instr.Movi (1 + k, 1L))) @ [ m Instr.Halt ])
        in
        let cpu_dep, _ =
          run
            (m (Instr.Movi (1, 1L))
             :: List.init 6 (fun _ -> m (Instr.Arith (Instr.Add, 1, 1, Instr.Imm 1L)))
            @ [ m Instr.Halt ])
        in
        Util.check_bool "dependent chain is slower" true
          (cpu_dep.Cpu.stats.cycles > cpu_indep.Cpu.stats.cycles));
    tc "memory ports limit throughput" (fun () ->
        let loads n =
          m (Instr.Movi (1, valid_addr))
          :: List.init n (fun k ->
                 m (Instr.Ld { width = Instr.W8; dst = 2 + (k mod 20); addr = 1; spec = false; fill = false }))
          @ [ m Instr.Halt ]
        in
        let cpu8, _ = run (loads 8) in
        let cpu32, _ = run (loads 32) in
        (* 2 ports -> ~n/2 cycles; the gap should be ~12 cycles *)
        Util.check_bool "port limited" true
          (cpu32.Cpu.stats.cycles - cpu8.Cpu.stats.cycles >= 10));
    tc "statistics count instructions and loads" (fun () ->
        let cpu, _ =
          run
            [
              m (Instr.Movi (1, valid_addr));
              m (Instr.Ld { width = Instr.W8; dst = 2; addr = 1; spec = false; fill = false });
              m (Instr.St { width = Instr.W8; addr = 1; src = 2; spill = false });
              m Instr.Halt;
            ]
        in
        Util.check_int "instructions" 4 cpu.Cpu.stats.instructions;
        Util.check_int "loads" 1 cpu.Cpu.stats.loads;
        Util.check_int "stores" 1 cpu.Cpu.stats.stores);
    tc "syscall handler runs and sets r8" (fun () ->
        let program =
          build [ m (Instr.Movi (Reg.sysnum, 99L)); m Instr.Syscall; m Instr.Halt ]
        in
        let cpu = Cpu.create program in
        cpu.Cpu.syscall_handler <- Some (fun c -> Cpu.set_value c Reg.ret 1234L);
        (match Cpu.run cpu with
        | Cpu.Exited v -> Util.check_i64 "handler result" 1234L v
        | _ -> Alcotest.fail "expected exit");
        Util.check_int "syscalls" 1 cpu.Cpu.stats.syscalls);
  ]

(* the budgeted stepping primitive behind Exec (PR 3) *)
let engine_tests =
  [
    tc "fuel 0 is immediate fuel exhaustion" (fun () ->
        let _, outcome =
          run ~fuel:0 [ m (Instr.Movi (Reg.ret, 1L)); m Instr.Halt ]
        in
        match outcome with
        | Cpu.Out_of_fuel -> ()
        | _ -> Alcotest.fail "expected fuel exhaustion");
    tc "run_for with budget 0 yields without stepping" (fun () ->
        let cpu = Cpu.create (build [ m Instr.Halt ]) in
        (match Cpu.run_for cpu ~budget:0 with
        | `Yielded -> ()
        | `Finished _ -> Alcotest.fail "expected yield");
        Util.check_int "no instructions ran" 0 cpu.Cpu.stats.instructions);
    tc "slicing run_for does not perturb the counters" (fun () ->
        let prog =
          build
            [
              m (Instr.Movi (1, 0L));
              lbl "loop";
              m (Instr.Arith (Instr.Add, 1, 1, Instr.Imm 1L));
              m (Instr.Cmp { cond = Cond.Lt; pt = 1; pf = 0; src1 = 1;
                             src2 = Instr.Imm 100L; taint_aware = false });
              m ~qp:1 (Instr.Br "loop");
              m (Instr.Arith (Instr.Add, Reg.ret, 1, Instr.Imm 0L));
              m Instr.Halt;
            ]
        in
        let reference = Cpu.create prog in
        let ref_outcome = Cpu.run reference in
        let sliced = Cpu.create prog in
        let rec drive () =
          match Cpu.run_for sliced ~budget:3 with
          | `Yielded -> drive ()
          | `Finished o -> o
        in
        let sliced_outcome = drive () in
        (match (ref_outcome, sliced_outcome) with
        | Cpu.Exited a, Cpu.Exited b -> Util.check_i64 "exit" a b
        | _ -> Alcotest.fail "expected both to exit");
        Util.check_string "counters"
          (Format.asprintf "%a" Shift_machine.Stats.pp reference.Cpu.stats)
          (Format.asprintf "%a" Shift_machine.Stats.pp sliced.Cpu.stats));
    tc "Stats.total sums cycles, Stats.concurrent maxes them" (fun () ->
        let a = Shift_machine.Stats.create ()
        and b = Shift_machine.Stats.create () in
        a.instructions <- 10; a.cycles <- 100; a.loads <- 3;
        b.instructions <- 5; b.cycles <- 40; b.loads <- 4;
        let t = Shift_machine.Stats.total [ a; b ]
        and c = Shift_machine.Stats.concurrent [ a; b ] in
        Util.check_int "total instructions" 15 t.instructions;
        Util.check_int "total cycles" 140 t.cycles;
        Util.check_int "total loads" 7 t.loads;
        Util.check_int "concurrent instructions" 15 c.instructions;
        Util.check_int "concurrent cycles" 100 c.cycles);
    tc "Stats.total and Stats.concurrent of the empty list" (fun () ->
        let t = Shift_machine.Stats.total []
        and c = Shift_machine.Stats.concurrent [] in
        Util.check_int "total instructions" 0 t.instructions;
        Util.check_int "total cycles" 0 t.cycles;
        Util.check_int "total slots" 0 (Shift_machine.Stats.total_slots t);
        Util.check_int "concurrent cycles" 0 c.cycles);
    tc "Stats aggregation of a singleton equals the element" (fun () ->
        let a = Shift_machine.Stats.create () in
        a.instructions <- 7; a.cycles <- 30; a.stores <- 2;
        let t = Shift_machine.Stats.total [ a ]
        and c = Shift_machine.Stats.concurrent [ a ] in
        Util.check_string "total"
          (Format.asprintf "%a" Shift_machine.Stats.pp a)
          (Format.asprintf "%a" Shift_machine.Stats.pp t);
        Util.check_string "concurrent"
          (Format.asprintf "%a" Shift_machine.Stats.pp a)
          (Format.asprintf "%a" Shift_machine.Stats.pp c));
    tc "Stats aggregates do not share slot arrays with inputs" (fun () ->
        let a = Shift_machine.Stats.create () in
        a.slots_by_prov.(0) <- 5;
        let t = Shift_machine.Stats.total [ a ]
        and c = Shift_machine.Stats.concurrent [ a ] in
        a.slots_by_prov.(0) <- 99;
        Util.check_int "total unaffected" 5 (Shift_machine.Stats.total_slots t);
        Util.check_int "concurrent unaffected" 5
          (Shift_machine.Stats.total_slots c);
        Util.check_bool "copy too" true
          (let s = Shift_machine.Stats.copy a in
           a.slots_by_prov.(0) <- 7;
           Shift_machine.Stats.total_slots s = 99));
  ]

(* the engines index registers and predicates unchecked, so decoding
   refuses an operand out of range instead of executing it *)
let decode_tests =
  let refused what items =
    tc what (fun () ->
        match Cpu.create (build items) with
        | _ -> Alcotest.failf "%s: decoded" what
        | exception Invalid_argument _ -> ())
  in
  [
    refused "a register past r127 is refused" [ m (Instr.Mov (6, Reg.count)); m Instr.Halt ];
    refused "a negative register is refused" [ m (Instr.Movi (-1, 0L)); m Instr.Halt ];
    refused "a predicate past p63 is refused"
      [ m ~qp:Pred.count (Instr.Movi (6, 0L)); m Instr.Halt ];
  ]

let indirect_tests =
  [
    tc "an indirect branch past 2^62 faults at the branch" (fun () ->
        let cpu, outcome =
          run [ m (Instr.Movi (14, 0x4000_0000_0000_0005L)); m (Instr.Br_reg 14); m Instr.Halt ]
        in
        (match outcome with
        | Cpu.Faulted (Fault.Invalid_branch v, pc) ->
            Util.check_i64 "target" 0x4000_0000_0000_0005L v;
            Util.check_int "faulting pc" 1 pc
        | _ -> Alcotest.fail "expected an invalid-branch fault");
        Util.check_int "no branch taken" 0 cpu.Cpu.stats.Shift_machine.Stats.branches);
  ]

let suites =
  [
    ("machine.decode", decode_tests);
    ("machine.indirect", indirect_tests);
    ("machine.arith", arith_tests);
    ("machine.nat", nat_tests);
    ("machine.nat-faults", nat_fault_tests);
    ("machine.spill", spill_tests);
    ("machine.control", control_tests);
    ("machine.pipeline", pipeline_tests);
    ("machine.engine", engine_tests);
  ]
