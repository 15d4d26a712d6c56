open Shift_isa
module Tracking = Shift_tracking.Tracking
module Memory = Shift_mem.Memory
module Addr = Shift_mem.Addr

type t = {
  program : Program.t;
  decoded : Decode.t;
  mem : Memory.t;
  values : Bytes.t;
  nats : bool array;
  preds : bool array;
  unat : Bytes.t;
  mutable ip : int;
  stats : Stats.t;
  pipe : Pipeline.t;
  cache : Cache.t;
  mutable syscall_handler : (t -> unit) option;
  mutable trace : (t -> int -> Instr.t -> unit) option;
  mutable flowtrace : Flowtrace.t;
  ftregs : Flowtrace.regs;
  mutable hwtrace : Hwtrace.t;
  call_stack : call_stack;
  sb : sb;
  mutable tracking : Tracking.t;
}

(* Return frames: the return ip and the caller's UNAT, in two growable
   arrays (8 bytes of [unats] per frame) that start small and double. *)
and call_stack = {
  mutable ret_ips : int array;
  mutable ret_unats : Bytes.t;
  mutable depth : int;
}

(* Superblock compiler state (see {!Superblock}).  Lives on the machine
   so the block cache follows the hart, but it is a *derived* cache:
   nothing here is ever snapshotted, and a restored machine starts cold
   with identical simulated counters. *)
and sb = {
  mutable sb_on : bool;
  sb_hot : int array;                      (* per-entry-pc execution counts *)
  sb_blocks : sb_block option array;       (* compiled block per entry pc *)
  mutable sb_watched : bool;               (* memory write-watch registered *)
  sb_stats : Stats.superblocks;
}

and sb_block = {
  sb_entry : int;
  sb_len : int;
  sb_ft : bool;              (* flowtrace.enabled the block was compiled for *)
  sb_provs : int array;      (* per-instruction provenance index, for unwinds *)
  sb_prov_counts : int array;(* per-provenance slot counts for the whole block *)
  sb_body : t -> unit;       (* straight-line compiled body *)
}

type outcome =
  | Exited of int64
  | Faulted of Fault.t * int
  | Out_of_fuel

exception Exit_requested of int64
exception Fault_exn of Fault.t
exception Halt_exn of int64

let branch_penalty = 1
let chk_penalty = 5
let syscall_overhead = 100
let call_stack_limit = 100_000

let create ?(entry = "_start") ?mem program =
  let preds = Array.make Pred.count false in
  preds.(Pred.p0) <- true;
  let size = Program.size program in
  {
    program;
    decoded = Decode.of_program program;
    mem = (match mem with Some m -> m | None -> Memory.create ());
    values = Bytes.make (Reg.count * 8) '\000';
    nats = Array.make Reg.count false;
    preds;
    unat = Bytes.make 8 '\000';
    ip = (if Program.has_label program entry then Program.target program entry else 0);
    stats = Stats.create ();
    pipe = Pipeline.create ();
    cache = Cache.create ();
    syscall_handler = None;
    trace = None;
    flowtrace = Flowtrace.disabled ();
    ftregs = Flowtrace.fresh_regs ();
    hwtrace = Hwtrace.disabled ();
    call_stack = { ret_ips = [||]; ret_unats = Bytes.empty; depth = 0 };
    sb =
      {
        sb_on = true;
        sb_hot = Array.make size 0;
        sb_blocks = Array.make size None;
        sb_watched = false;
        sb_stats = Stats.sb_create ();
      };
    tracking = Tracking.default;
  }

(* ---------- the register file ----------

   Everything below that touches an [int64] register value does so in
   locals of this compilation unit, through the [@inline] accessors, so
   the value stays unboxed: the build's default profile compiles with
   -opaque, and an [int64] passed to or returned from another module
   (or any call that is not inlined) is boxed on the minor heap. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Unchecked little-endian slots: register operands are range-checked
   once, when the program is decoded ({!Decode.of_program}), and the
   UNAT and frame slots are in range by construction. *)
let[@inline] get64 b i = if Sys.big_endian then swap64 (get64u b i) else get64u b i
let[@inline] set64 b i v = set64u b i (if Sys.big_endian then swap64 v else v)

let[@inline] reg t r = get64 t.values (r lsl 3)

let[@inline] set_reg t r v = if r <> Reg.zero then set64 t.values (r lsl 3) v

(* NaT bits and predicates, unchecked for the same reason *)
let[@inline] nat t r = Array.unsafe_get t.nats r
let[@inline] put_nat t r b = Array.unsafe_set t.nats r b

let[@inline] unat t = get64 t.unat 0

let[@inline] set_unat_v t v = set64 t.unat 0 v

(* the boundary accessors take any [int], so they keep the bounds check *)
let get_value t r = Bytes.get_int64_le t.values (r lsl 3)

let set_value t r v = if r <> Reg.zero then Bytes.set_int64_le t.values (r lsl 3) v

let get_nat t r = t.nats.(r)

let set_nat t r b = if r <> Reg.zero then t.nats.(r) <- b

(* the engines' NaT write: r0's NaT bit stays clear *)
let[@inline] write_nat t r b = if r <> Reg.zero then put_nat t r b

let get_unat t = unat t

let set_unat t v = set_unat_v t v

let add_io_cycles t n =
  t.stats.io_cycles <- t.stats.io_cycles + n;
  Pipeline.stall t.pipe n

(* ---------- value semantics, shared by both engines ---------- *)

let[@inline] shift_amount b = Int64.to_int (Int64.logand b 63L)

let[@inline] arith (a : Instr.arith) x y =
  match a with
  | Instr.Add -> Int64.add x y
  | Instr.Sub -> Int64.sub x y
  | Instr.Mul -> Int64.mul x y
  | Instr.Div ->
      if Int64.equal y 0L then raise (Fault_exn Fault.Div_by_zero)
      else if Int64.equal y (-1L) then Int64.neg x
      else Int64.div x y
  | Instr.Rem ->
      if Int64.equal y 0L then raise (Fault_exn Fault.Div_by_zero)
      else if Int64.equal y (-1L) then 0L
      else Int64.rem x y
  | Instr.And -> Int64.logand x y
  | Instr.Or -> Int64.logor x y
  | Instr.Xor -> Int64.logxor x y
  | Instr.Andcm -> Int64.logand x (Int64.lognot y)
  | Instr.Shl -> Int64.shift_left x (shift_amount y)
  | Instr.Shr -> Int64.shift_right_logical x (shift_amount y)
  | Instr.Sar -> Int64.shift_right x (shift_amount y)

let[@inline] cond c x y =
  Cond.holds c ~signed:(Int64.compare x y) ~unsigned:(Int64.unsigned_compare x y)

(* one function per operand shape: a match yielding either a register
   value or the boxed immediate would box the register value *)
let arith_reg t a ~dst ~s1 ~s2 = set_reg t dst (arith a (reg t s1) (reg t s2))
let arith_imm t a ~dst ~s1 imm = set_reg t dst (arith a (reg t s1) imm)

let operand_nat t = function
  | Instr.R r -> nat t r
  | Instr.Imm _ -> false

let unimplemented_bits =
  Int64.logxor (Int64.sub (Int64.shift_left 1L Addr.region_shift) 1L) Addr.impl_mask

let null_guard = Int64.to_int Addr.null_guard

(* The packed address (see {!Addr.pack}) register [r] holds, or -1 when
   the value is not a valid address: canonical and past the null
   guard, exactly {!Addr.is_valid}. *)
let[@inline] packed t r =
  let a = reg t r in
  if not (Int64.equal (Int64.logand a unimplemented_bits) 0L) then -1
  else
    let off = Int64.to_int (Int64.logand a Addr.impl_mask) in
    if off < null_guard then -1
    else (Int64.to_int (Int64.shift_right_logical a Addr.region_shift) lsl Addr.impl_bits) lor off

(* A guest load's register effect: the value, and the NaT bit from the
   UNAT bit covering the address for [ld.fill].  r0 stays zero (the
   access itself still happens, as it allocates the page). *)
let load_reg t pa ~width ~dst ~fill =
  Memory.load t.mem pa ~width t.values (dst lsl 3);
  if dst = Reg.zero then set64 t.values 0 0L
  else
    put_nat t dst
      (fill && Int64.logand (Int64.shift_right_logical (unat t) ((pa lsr 3) land 63)) 1L = 1L)

(* A guest store's effect once its checks passed: [st.spill] first
   parks the NaT bit of [src] in UNAT *)
let store_reg t pa ~width ~src ~spill =
  if spill then begin
    let mask = Int64.shift_left 1L ((pa lsr 3) land 63) in
    let u = unat t in
    set_unat_v t (if nat t src then Int64.logor u mask else Int64.logand u (Int64.lognot mask))
  end;
  Memory.store t.mem pa ~width t.values (src lsl 3)

let set_pred t p b = if p <> Pred.p0 then Array.unsafe_set t.preds p b

let goto t target =
  t.ip <- target;
  t.stats.branches <- t.stats.branches + 1;
  Pipeline.redirect t.pipe ~penalty:branch_penalty

(* ---------- the call stack ---------- *)

let grow_call_stack cs =
  let n = min call_stack_limit (max 16 (2 * cs.depth)) in
  let ips = Array.make n 0 and unats = Bytes.make (n * 8) '\000' in
  Array.blit cs.ret_ips 0 ips 0 cs.depth;
  Bytes.blit cs.ret_unats 0 unats 0 (cs.depth * 8);
  cs.ret_ips <- ips;
  cs.ret_unats <- unats

let[@inline] push_frame t ~ret ~unat_v =
  let cs = t.call_stack in
  let n = cs.depth in
  if n >= call_stack_limit then raise (Fault_exn Fault.Call_stack_overflow);
  if n = Array.length cs.ret_ips then grow_call_stack cs;
  cs.ret_ips.(n) <- ret;
  set64 cs.ret_unats (n * 8) unat_v;
  cs.depth <- n + 1

let push_call t = push_frame t ~ret:(t.ip + 1) ~unat_v:(unat t)

let call_frames t =
  let cs = t.call_stack in
  List.init cs.depth (fun i ->
      let k = cs.depth - 1 - i in
      (cs.ret_ips.(k), get64 cs.ret_unats (k * 8)))

let set_call_frames t frames =
  if List.length frames > call_stack_limit then
    invalid_arg "Cpu.set_call_frames: deeper than the call-stack limit";
  t.call_stack.depth <- 0;
  List.iter (fun (ret, u) -> push_frame t ~ret ~unat_v:u) (List.rev frames)

(* the range check is on the [int64]: [Int64.to_int] of a target at or
   past 2^62 would wrap negative and slip through an [int] check *)
let indirect_target t r =
  let v = reg t r in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int (Program.size t.program)) >= 0
  then raise (Fault_exn (Fault.Invalid_branch v));
  Int64.to_int v

(* Executes the functional effect of one instruction whose qualifying
   predicate is true, and advances [t.ip].  [d.target] carries the
   pre-resolved label target for the branch-like operations, so the hot
   loop never consults the label table. *)
let exec_op t (d : Decode.info) =
  (* Flowtrace hooks fire only for original-program instructions whose
     trace is enabled: one load-and-branch here when tracing is off, and
     the SHIFT instrumentation (non-Orig provenance) stays transparent
     to the provenance shadow. *)
  let ft = t.flowtrace in
  let ft_on = ft.Flowtrace.enabled && d.Decode.prov_index = 0 in
  match d.Decode.op with
  | Instr.Nop ->
      t.ip <- t.ip + 1
  | Instr.Halt -> raise (Halt_exn (reg t Reg.ret))
  | Instr.Movi (d, v) ->
      set_reg t d v;
      write_nat t d false;
      if ft_on then Flowtrace.on_const ft t.ftregs ~dst:d;
      t.ip <- t.ip + 1
  | Instr.Mov (d, s) ->
      set_reg t d (reg t s);
      write_nat t d (nat t s);
      if ft_on then Flowtrace.on_move ft t.ftregs ~ip:t.ip ~dst:d ~src:s;
      t.ip <- t.ip + 1
  | Instr.Lea (dst, _) ->
      set_reg t dst (Int64.of_int d.Decode.target);
      write_nat t dst false;
      if ft_on then Flowtrace.on_const ft t.ftregs ~dst;
      t.ip <- t.ip + 1
  | Instr.Arith (a, dst, s1, o) ->
      (match o with
      | Instr.R s2 -> arith_reg t a ~dst ~s1 ~s2
      | Instr.Imm i -> arith_imm t a ~dst ~s1 i);
      (* xor r = s, s and sub r = s, s are the recognised clear idioms
         (paper §3.3.2): the result does not depend on the source value,
         so the taint is purged. *)
      let clear_idiom =
        match (a, o) with
        | (Instr.Xor | Instr.Sub), Instr.R s2 -> s1 = s2
        | _ -> false
      in
      let tainted =
        (not clear_idiom) && (nat t s1 || operand_nat t o)
      in
      write_nat t dst tainted;
      if ft_on then
        Flowtrace.on_arith ft t.ftregs ~ip:t.ip ~dst ~src1:s1
          ~src2:(match o with Instr.R r -> Some r | Instr.Imm _ -> None)
          ~clear:clear_idiom;
      t.ip <- t.ip + 1
  | Instr.Cmp { cond = c; pt; pf; src1; src2; taint_aware } ->
      let tainted = nat t src1 || operand_nat t src2 in
      if tainted && not taint_aware then begin
        (* Baseline deferred-exception behaviour: survive speculation
           failure by clearing both branch predicates. *)
        set_pred t pt false;
        set_pred t pf false
      end
      else begin
        let r =
          match src2 with
          | Instr.R s2 -> cond c (reg t src1) (reg t s2)
          | Instr.Imm i -> cond c (reg t src1) i
        in
        set_pred t pt r;
        set_pred t pf (not r)
      end;
      t.ip <- t.ip + 1
  | Instr.Tnat { pt; pf; src } ->
      set_pred t pt (nat t src);
      set_pred t pf (not (nat t src));
      if ft_on then
        Flowtrace.on_check ft t.ftregs ~ip:t.ip ~src ~tainted:(nat t src);
      t.ip <- t.ip + 1
  | Instr.Extr { dst; src; pos; len } ->
      (* a full-width extract (len = 64) must keep all 64 bits; shifting
         1L by (len land 63) = 0 would compute an empty mask *)
      let mask =
        if len >= 64 then -1L else Int64.sub (Int64.shift_left 1L (len land 63)) 1L
      in
      set_reg t dst (Int64.logand (Int64.shift_right_logical (reg t src) (pos land 63)) mask);
      write_nat t dst (nat t src);
      if ft_on then Flowtrace.on_move ft t.ftregs ~ip:t.ip ~dst ~src;
      t.ip <- t.ip + 1
  | Instr.Ld { width; dst; addr; spec; fill } ->
      let pa = if nat t addr then -1 else packed t addr in
      if pa < 0 then
        if spec then begin
          set_reg t dst 0L;
          write_nat t dst true;
          if ft_on then Flowtrace.on_spec_nat ft t.ftregs ~ip:t.ip ~dst
        end
        else if nat t addr then
          raise (Fault_exn (Fault.Nat_consumption Fault.Load_address))
        else raise (Fault_exn (Fault.Invalid_address (reg t addr)))
      else begin
        let w = Instr.bytes_of_width width in
        load_reg t pa ~width:w ~dst ~fill;
        t.stats.loads <- t.stats.loads + 1;
        if ft_on then Flowtrace.on_load ft t.ftregs ~ip:t.ip ~dst ~addr:(Addr.unpack pa) ~len:w
      end;
      t.ip <- t.ip + 1
  | Instr.St { width; addr; src; spill } ->
      if nat t addr then
        raise (Fault_exn (Fault.Nat_consumption Fault.Store_address));
      let pa = packed t addr in
      if pa < 0 then raise (Fault_exn (Fault.Invalid_address (reg t addr)));
      if nat t src && not spill then
        raise (Fault_exn (Fault.Nat_consumption Fault.Store_value));
      let w = Instr.bytes_of_width width in
      store_reg t pa ~width:w ~src ~spill;
      t.stats.stores <- t.stats.stores + 1;
      if ft_on then Flowtrace.on_store ft t.ftregs ~ip:t.ip ~src ~addr:(Addr.unpack pa) ~len:w;
      t.ip <- t.ip + 1
  | Instr.Chk_s { src; _ } ->
      if ft_on then
        Flowtrace.on_check ft t.ftregs ~ip:t.ip ~src ~tainted:(nat t src);
      if nat t src then begin
        t.ip <- d.Decode.target;
        t.stats.branches <- t.stats.branches + 1;
        Pipeline.redirect t.pipe ~penalty:chk_penalty
      end
      else t.ip <- t.ip + 1
  | Instr.Br _ -> goto t d.Decode.target
  | Instr.Br_reg r ->
      if nat t r then
        raise (Fault_exn (Fault.Nat_consumption Fault.Branch_target));
      goto t (indirect_target t r)
  | Instr.Call _ ->
      push_call t;
      goto t d.Decode.target
  | Instr.Call_reg r ->
      if nat t r then
        raise (Fault_exn (Fault.Nat_consumption Fault.Call_target));
      let target = indirect_target t r in
      push_call t;
      goto t target
  | Instr.Ret ->
      let cs = t.call_stack in
      if cs.depth = 0 then raise (Fault_exn Fault.Call_stack_underflow);
      let n = cs.depth - 1 in
      cs.depth <- n;
      set_unat_v t (get64 cs.ret_unats (n * 8));
      goto t cs.ret_ips.(n)
  | Instr.Fetchadd { dst; addr; inc } ->
      let a = reg t addr in
      if nat t addr then
        raise (Fault_exn (Fault.Nat_consumption Fault.Load_address));
      if not (Addr.is_valid a) then raise (Fault_exn (Fault.Invalid_address a));
      let old = Memory.read t.mem a ~width:8 in
      Memory.write t.mem a ~width:8 (Int64.add old (reg t inc));
      set_reg t dst old;
      write_nat t dst false;
      t.stats.loads <- t.stats.loads + 1;
      t.stats.stores <- t.stats.stores + 1;
      if ft_on then Flowtrace.on_load ft t.ftregs ~ip:t.ip ~dst ~addr:a ~len:8;
      t.ip <- t.ip + 1
  | Instr.Setnat r ->
      (* under a per-instruction backend the marker is a coprocessor
         directive (mirrored by track_op), not a real NaT write — a
         stray NaT in uninstrumented code would fault *)
      if not (Tracking.per_instr t.tracking) then write_nat t r true;
      if ft_on then Flowtrace.on_setnat ft t.ftregs ~ip:t.ip ~reg:r;
      t.ip <- t.ip + 1
  | Instr.Clrnat r ->
      if not (Tracking.per_instr t.tracking) then write_nat t r false;
      if ft_on then Flowtrace.on_clrnat ft t.ftregs ~ip:t.ip ~reg:r;
      t.ip <- t.ip + 1
  | Instr.Syscall ->
      t.stats.syscalls <- t.stats.syscalls + 1;
      Pipeline.stall t.pipe syscall_overhead;
      (match t.syscall_handler with
      | Some h -> h t
      | None -> ());
      (* the handler wrote the return value; whatever provenance the
         register carried before the call no longer describes it *)
      if ft.Flowtrace.enabled then begin
        t.ftregs.Flowtrace.id.(Reg.ret) <- 0;
        t.ftregs.Flowtrace.depth.(Reg.ret) <- 0;
        t.ftregs.Flowtrace.washed.(Reg.ret) <- 0
      end;
      t.ip <- t.ip + 1

(* Mirror of [exec_op]'s taint semantics for the decoupled tag
   coprocessor (Tracking backend [coproc]): the guest runs
   uninstrumented while the core emits one propagation record per
   retiring instruction onto the asynchronous tag queue.  The mirror
   reads operands pre-execution — the same values [exec_op] is about to
   consume — and only for addresses [exec_op] would accept, so a
   faulting instruction enqueues nothing.  Syscalls are a
   synchronisation barrier: the queue is flushed before the OS model
   runs, keeping the H1–H5 sink checks exact. *)
let track_op t (d : Decode.info) =
  let tk = t.tracking in
  let checks = Tracking.low_level_checks tk in
  (match d.Decode.op with
  | Instr.Nop | Instr.Halt | Instr.Cmp _ | Instr.Tnat _ | Instr.Chk_s _
  | Instr.Br _ | Instr.Call _ | Instr.Ret ->
      ()
  | Instr.Movi (dst, _) -> Tracking.push tk (Tracking.Set { dst; tainted = false })
  | Instr.Lea (dst, _) -> Tracking.push tk (Tracking.Set { dst; tainted = false })
  | Instr.Mov (dst, src) -> Tracking.push tk (Tracking.Move { dst; src })
  | Instr.Extr { dst; src; _ } -> Tracking.push tk (Tracking.Move { dst; src })
  | Instr.Arith (a, dst, s1, o) ->
      let clear_idiom =
        match (a, o) with
        | (Instr.Xor | Instr.Sub), Instr.R s2 -> s1 = s2
        | _ -> false
      in
      if clear_idiom then Tracking.push tk (Tracking.Set { dst; tainted = false })
      else
        let s2 = match o with Instr.R r -> r | Instr.Imm _ -> Reg.zero in
        Tracking.push tk (Tracking.Union { dst; s1; s2 })
  | Instr.Ld { width; dst; addr; _ } ->
      let a = reg t addr in
      if Addr.is_valid a then begin
        if checks then
          Tracking.push tk (Tracking.Check { what = Tracking.Load_address; reg = addr });
        Tracking.push tk
          (Tracking.Load { dst; addr = a; len = Instr.bytes_of_width width })
      end
  | Instr.St { width; addr; src; _ } ->
      let a = reg t addr in
      if Addr.is_valid a then begin
        if checks then
          Tracking.push tk (Tracking.Check { what = Tracking.Store_address; reg = addr });
        Tracking.push tk
          (Tracking.Store { addr = a; len = Instr.bytes_of_width width; src })
      end
  | Instr.Fetchadd { dst; addr; _ } ->
      if Addr.is_valid (reg t addr) then begin
        if checks then
          Tracking.push tk (Tracking.Check { what = Tracking.Load_address; reg = addr });
        Tracking.push tk (Tracking.Set { dst; tainted = false })
      end
  | Instr.Br_reg r ->
      if checks then
        Tracking.push tk (Tracking.Check { what = Tracking.Branch_target; reg = r })
  | Instr.Call_reg r ->
      if checks then
        Tracking.push tk (Tracking.Check { what = Tracking.Call_target; reg = r })
  | Instr.Setnat r -> Tracking.push tk (Tracking.Set { dst = r; tainted = true })
  | Instr.Clrnat r -> Tracking.push tk (Tracking.Set { dst = r; tainted = false })
  | Instr.Syscall ->
      Tracking.flush tk;
      Tracking.push tk (Tracking.Set { dst = Reg.ret; tainted = false }));
  let stall = Tracking.take_stall tk in
  if stall > 0 then Pipeline.stall t.pipe stall

let finish t outcome =
  t.stats.cycles <- Pipeline.cycles t.pipe;
  outcome

(* One guest load/store touching the L1D model: account the access and,
   when the observation trace is live, record the set index it mapped to
   along with the provenance id of the address register.  The
   interpreter below and every superblock closure go through here, so
   the hardware trace cannot depend on which engine ran the access. *)
let touch_cache t ~pc ~store ~areg pa =
  let hit = Cache.access t.cache pa in
  let hw = t.hwtrace in
  if hw.Hwtrace.enabled then begin
    let prov =
      if t.flowtrace.Flowtrace.enabled then begin
        let id = t.ftregs.Flowtrace.id.(areg) in
        if id <> 0 then id else t.ftregs.Flowtrace.washed.(areg)
      end
      else 0
    in
    Hwtrace.record hw ~pc ~set:(Cache.set_of t.cache pa) ~hit ~store ~prov
  end;
  hit

let step t =
  if t.ip < 0 || t.ip >= Program.size t.program then
    Some (finish t (Faulted (Fault.Invalid_branch (Int64.of_int t.ip), t.ip)))
  else begin
    let start_ip = t.ip in
    let d = Array.unsafe_get t.decoded t.ip in
    (match t.trace with Some f -> f t t.ip t.program.code.(t.ip) | None -> ());
    let executing = Array.unsafe_get t.preds d.Decode.qp in
    t.stats.instructions <- t.stats.instructions + 1;
    t.stats.slots_by_prov.(d.Decode.prov_index) <-
      t.stats.slots_by_prov.(d.Decode.prov_index) + 1;
    if not executing then t.stats.predicated_off <- t.stats.predicated_off + 1;
    (* loads consult the cache model for their use-latency; stores
       allocate their line but are assumed write-buffered *)
    let latency =
      if executing && d.Decode.is_mem then
        match d.Decode.op with
        | Instr.Ld { addr; _ } when not (nat t addr) ->
            let pa = packed t addr in
            if pa >= 0 && not (touch_cache t ~pc:start_ip ~store:false ~areg:addr pa)
            then d.Decode.latency + Cache.miss_penalty
            else d.Decode.latency
        | Instr.St { addr; _ } when not (nat t addr) ->
            let pa = packed t addr in
            if pa >= 0 then ignore (touch_cache t ~pc:start_ip ~store:true ~areg:addr pa);
            d.Decode.latency
        | _ -> d.Decode.latency
      else d.Decode.latency
    in
    Pipeline.issue t.pipe ~executing ~reads:d.Decode.reads
      ~writes:d.Decode.writes
      ~pred_writes:d.Decode.pred_writes
      ~qp:d.Decode.qp ~is_mem:d.Decode.is_mem ~latency;
    (* decoupled-backend hook: one never-taken branch under nat/none *)
    (let tk = t.tracking in
     if Tracking.per_instr tk then begin
       Tracking.tick tk;
       if executing then track_op t d
     end);
    if executing then
      try
        exec_op t d;
        None
      with
      | Fault_exn f -> Some (finish t (Faulted (f, start_ip)))
      | Halt_exn v | Exit_requested v -> Some (finish t (Exited v))
    else begin
      t.ip <- t.ip + 1;
      None
    end
  end

(* ---------- the compiled form, for superblocks ----------

   [compile_exec] returns the functional effect of one instruction whose
   qualifying predicate is true — the closure-compiled mirror of
   [exec_op], with operand indices bound and [ft] (the
   flowtrace.enabled value the enclosing block is compiled for) fixed,
   fused with the instruction's pipeline [issue].
   It lives next to [exec_op] so both use the same inlined value
   semantics ([arith], [cond], [packed], the register accessors): a
   compiled body keeps every register value unboxed and allocates
   nothing.  Instructions with no specialised shape fall back to
   [exec_op], which is identical by construction. *)

let[@inline] next t = t.ip <- t.ip + 1

let compile_exec (d : Decode.info) ~ft ~issue : t -> unit =
  let generic t =
    issue t.pipe;
    exec_op t d
  in
  let skip t =
    issue t.pipe;
    next t
  in
  (* a constant into a register: movi, and lea with its resolved target *)
  let const dst v =
    if dst = Reg.zero then skip
    else
      let o = dst lsl 3 in
      fun t ->
        issue t.pipe;
        set64 t.values o v;
        put_nat t dst false;
        if ft then Flowtrace.on_const t.flowtrace t.ftregs ~dst;
        next t
  in
  match d.Decode.op with
  | Instr.Nop -> skip
  | Instr.Movi (dst, v) -> const dst v
  | Instr.Lea (dst, _) -> const dst (Int64.of_int d.Decode.target)
  | Instr.Mov (dst, src) ->
      if dst = Reg.zero then skip
      else
        let o = dst lsl 3 and so = src lsl 3 in
        fun t ->
          issue t.pipe;
          set64 t.values o (get64 t.values so);
          put_nat t dst (nat t src);
          if ft then Flowtrace.on_move t.flowtrace t.ftregs ~ip:t.ip ~dst ~src;
          next t
  | Instr.Arith (a, dst, s1, o) -> (
      let can_fault = match a with Instr.Div | Instr.Rem -> true | _ -> false in
      if dst = Reg.zero then if can_fault then generic else skip
      else
        (* one closure per operator: [arith] with a constant operator
           folds to the single operation, so the body carries no
           dispatch on [a] *)
        let od = dst lsl 3 and o1 = s1 lsl 3 in
        match o with
        | Instr.Imm imm -> (
            (* an immediate operand carries no NaT: the operand_nat read
               is dropped *)
            let rest t =
              put_nat t dst (nat t s1);
              if ft then
                Flowtrace.on_arith t.flowtrace t.ftregs ~ip:t.ip ~dst ~src1:s1
                  ~src2:None ~clear:false;
              next t
            in
            match a with
            | Instr.Add ->
                fun t ->
                  issue t.pipe;
                  set64 t.values od (arith Instr.Add (get64 t.values o1) imm);
                  rest t
            | Instr.Sub ->
                fun t ->
                  issue t.pipe;
                  set64 t.values od (arith Instr.Sub (get64 t.values o1) imm);
                  rest t
            | Instr.And ->
                fun t ->
                  issue t.pipe;
                  set64 t.values od (arith Instr.And (get64 t.values o1) imm);
                  rest t
            | Instr.Or ->
                fun t ->
                  issue t.pipe;
                  set64 t.values od (arith Instr.Or (get64 t.values o1) imm);
                  rest t
            | Instr.Xor ->
                fun t ->
                  issue t.pipe;
                  set64 t.values od (arith Instr.Xor (get64 t.values o1) imm);
                  rest t
            | Instr.Shl ->
                fun t ->
                  issue t.pipe;
                  set64 t.values od (arith Instr.Shl (get64 t.values o1) imm);
                  rest t
            | Instr.Shr ->
                fun t ->
                  issue t.pipe;
                  set64 t.values od (arith Instr.Shr (get64 t.values o1) imm);
                  rest t
            | _ ->
                fun t ->
                  issue t.pipe;
                  set64 t.values od (arith a (get64 t.values o1) imm);
                  rest t)
        | Instr.R s2 -> (
            let clear =
              match a with Instr.Xor | Instr.Sub -> s1 = s2 | _ -> false
            in
            let o2 = s2 lsl 3 and src2 = Some s2 in
            let rest t =
              put_nat t dst ((not clear) && (nat t s1 || nat t s2));
              if ft then
                Flowtrace.on_arith t.flowtrace t.ftregs ~ip:t.ip ~dst ~src1:s1
                  ~src2 ~clear;
              next t
            in
            match a with
            | Instr.Add ->
                fun t ->
                  issue t.pipe;
                  set64 t.values od
                    (arith Instr.Add (get64 t.values o1) (get64 t.values o2));
                  rest t
            | Instr.Sub ->
                fun t ->
                  issue t.pipe;
                  set64 t.values od
                    (arith Instr.Sub (get64 t.values o1) (get64 t.values o2));
                  rest t
            | Instr.And ->
                fun t ->
                  issue t.pipe;
                  set64 t.values od
                    (arith Instr.And (get64 t.values o1) (get64 t.values o2));
                  rest t
            | Instr.Or ->
                fun t ->
                  issue t.pipe;
                  set64 t.values od
                    (arith Instr.Or (get64 t.values o1) (get64 t.values o2));
                  rest t
            | Instr.Xor ->
                fun t ->
                  issue t.pipe;
                  set64 t.values od
                    (arith Instr.Xor (get64 t.values o1) (get64 t.values o2));
                  rest t
            | Instr.Shl ->
                fun t ->
                  issue t.pipe;
                  set64 t.values od
                    (arith Instr.Shl (get64 t.values o1) (get64 t.values o2));
                  rest t
            | Instr.Shr ->
                fun t ->
                  issue t.pipe;
                  set64 t.values od
                    (arith Instr.Shr (get64 t.values o1) (get64 t.values o2));
                  rest t
            | _ ->
                fun t ->
                  issue t.pipe;
                  set64 t.values od (arith a (get64 t.values o1) (get64 t.values o2));
                  rest t))
  | Instr.Cmp { cond = c; pt; pf; src1; src2; taint_aware } -> (
      let o1 = src1 lsl 3 in
      (* a NaT source clears both predicates unless taint-aware, as in
         [exec_op] *)
      let set t r =
        set_pred t pt r;
        set_pred t pf (not r)
      and clear t =
        set_pred t pt false;
        set_pred t pf false
      in
      (* the condition as its outcome for each sign of one three-way
         comparison, read off {!Cond.holds} once here, so the body
         compares in place and calls nothing *)
      let uns =
        Cond.holds c ~signed:0 ~unsigned:(-1) <> Cond.holds c ~signed:0 ~unsigned:0
        || Cond.holds c ~signed:0 ~unsigned:1 <> Cond.holds c ~signed:0 ~unsigned:0
      in
      let holds k = if uns then Cond.holds c ~signed:0 ~unsigned:k else Cond.holds c ~signed:k ~unsigned:0 in
      let lt = holds (-1) and eq = holds 0 and gt = holds 1 in
      let tainted t = (not taint_aware) && nat t src1 in
      match src2 with
      | Instr.Imm imm ->
          fun t ->
            issue t.pipe;
            if tainted t then clear t
            else begin
              let x = get64 t.values o1 in
              let k = if uns then Int64.unsigned_compare x imm else Int64.compare x imm in
              set t (if k < 0 then lt else if k = 0 then eq else gt)
            end;
            next t
      | Instr.R s2 ->
          let o2 = s2 lsl 3 in
          fun t ->
            issue t.pipe;
            if tainted t || ((not taint_aware) && nat t s2) then clear t
            else begin
              let x = get64 t.values o1 and y = get64 t.values o2 in
              let k = if uns then Int64.unsigned_compare x y else Int64.compare x y in
              set t (if k < 0 then lt else if k = 0 then eq else gt)
            end;
            next t)
  | Instr.Tnat { pt; pf; src } ->
      fun t ->
        issue t.pipe;
        let n = nat t src in
        set_pred t pt n;
        set_pred t pf (not n);
        if ft then Flowtrace.on_check t.flowtrace t.ftregs ~ip:t.ip ~src ~tainted:n;
        next t
  | Instr.Extr { dst; src; pos; len } ->
      if dst = Reg.zero then skip
      else begin
        let mask =
          if len >= 64 then -1L
          else Int64.sub (Int64.shift_left 1L (len land 63)) 1L
        in
        let sh = pos land 63 and o = dst lsl 3 and so = src lsl 3 in
        fun t ->
          issue t.pipe;
          set64 t.values o
            (Int64.logand (Int64.shift_right_logical (get64 t.values so) sh) mask);
          put_nat t dst (nat t src);
          if ft then Flowtrace.on_move t.flowtrace t.ftregs ~ip:t.ip ~dst ~src;
          next t
      end
  | Instr.Chk_s { src; _ } ->
      let target = d.Decode.target in
      fun t ->
        issue t.pipe;
        let n = nat t src in
        if ft then Flowtrace.on_check t.flowtrace t.ftregs ~ip:t.ip ~src ~tainted:n;
        if n then begin
          t.ip <- target;
          t.stats.branches <- t.stats.branches + 1;
          Pipeline.redirect t.pipe ~penalty:chk_penalty
        end
        else next t
  | Instr.Br _ ->
      let target = d.Decode.target in
      fun t ->
        issue t.pipe;
        goto t target
  | Instr.Halt | Instr.Ld _ | Instr.St _ | Instr.Br_reg _ | Instr.Call _
  | Instr.Call_reg _ | Instr.Ret | Instr.Fetchadd _ | Instr.Setnat _
  | Instr.Clrnat _ | Instr.Syscall ->
      (* loads and stores are fused in [compile_instr] and reach here
         only for their faulting paths *)
      generic

(* [compile_instr] wraps an instruction body with exactly [step]'s
   timing work — predicated-off accounting, the cache consultation for
   valid memory accesses, the pipeline issue — through a
   {!Pipeline.compile_issue} closure specialised for the instruction's
   operand shape.  Loads and stores are *fused*: the address check, the
   cache lookup, the issue and the access itself are one closure, so
   the machine state each stage needs is read once (the interpreter
   reads it once in the timing prologue and again in [exec_op]).  An
   access whose address or stored value fails its check runs [exec_op]
   after the issue, which takes the same speculative-NaT or fault path
   the interpreter takes. *)
let compile_instr (decoded : Decode.t) ~ft pc : t -> unit =
  let d = decoded.(pc) in
  (* hooks fire only for original-program instructions: the SHIFT
     instrumentation (non-Orig provenance) is transparent to the
     provenance shadow, exactly as in [exec_op] *)
  let ft = ft && d.Decode.prov_index = 0 in
  let qp = d.Decode.qp in
  let lat0 = d.Decode.latency in
  let issue_at latency =
    Pipeline.compile_issue ~reads:d.Decode.reads ~writes:d.Decode.writes
      ~pred_writes:d.Decode.pred_writes ~qp ~is_mem:d.Decode.is_mem ~latency
  in
  let issue = issue_at lat0 in
  let hot =
    match d.Decode.op with
    | Instr.Ld { width; dst; addr; fill; _ } ->
        let w = Instr.bytes_of_width width in
        let issue_miss = issue_at (lat0 + Cache.miss_penalty) in
        fun t ->
          let pa = if nat t addr then -1 else packed t addr in
          if pa >= 0 then begin
            if touch_cache t ~pc ~store:false ~areg:addr pa then issue t.pipe
            else issue_miss t.pipe;
            load_reg t pa ~width:w ~dst ~fill;
            t.stats.loads <- t.stats.loads + 1;
            if ft then
              Flowtrace.on_load t.flowtrace t.ftregs ~ip:t.ip ~dst
                ~addr:(Addr.unpack pa) ~len:w;
            next t
          end
          else begin
            issue t.pipe;
            exec_op t d
          end
    | Instr.St { width; addr; src; spill } ->
        let w = Instr.bytes_of_width width in
        fun t ->
          let pa = if nat t addr then -1 else packed t addr in
          if pa >= 0 then ignore (touch_cache t ~pc ~store:true ~areg:addr pa);
          issue t.pipe;
          if pa < 0 || (nat t src && not spill) then exec_op t d
          else begin
            store_reg t pa ~width:w ~src ~spill;
            t.stats.stores <- t.stats.stores + 1;
            if ft then
              Flowtrace.on_store t.flowtrace t.ftregs ~ip:t.ip ~src
                ~addr:(Addr.unpack pa) ~len:w;
            next t
          end
    | _ -> compile_exec d ~ft ~issue
  in
  if qp = Pred.p0 then
    (* p0 is architecturally always true: the predicate read and the
       predicated-off path are dropped *)
    hot
  else begin
    let off = Pipeline.compile_issue_off ~qp in
    fun t ->
      if Array.unsafe_get t.preds qp then hot t
      else begin
        t.stats.predicated_off <- t.stats.predicated_off + 1;
        off t.pipe;
        next t
      end
  end

type status = [ `Yielded | `Finished of outcome ]

let run_for t ~budget =
  let rec go n =
    if n <= 0 then `Yielded
    else
      match step t with
      | Some outcome -> `Finished outcome
      | None -> go (n - 1)
  in
  (* keep the cycle count consistent even when a syscall handler raises
     (policy violations propagate as exceptions) *)
  Fun.protect ~finally:(fun () -> t.stats.cycles <- Pipeline.cycles t.pipe) (fun () -> go budget)

let run ?(fuel = 2_000_000_000) t =
  match run_for t ~budget:fuel with
  | `Finished outcome -> outcome
  | `Yielded -> finish t Out_of_fuel
