(* The dynamic superblock compiler.

   Hot single-entry straight-line regions of the guest program are
   compiled into chains of pre-resolved OCaml closures, one per
   instruction, built by {!Cpu.compile_instr} next to the interpreter
   whose value semantics they share: operand indices,
   immediates, branch targets, Extr masks, predicate liveness and
   flow-trace hooks are all bound at compile time, so the steady state
   executes block-to-block through the block cache without touching the
   generic decode/dispatch interpreter.

   The contract is *counter identity*: a run with superblocks on must
   produce exactly the simulated state a pure-interpreter run produces —
   every Stats field, pipeline cycle, cache line, taint bit, Flowtrace
   ring slot and alert.  Consequently no guest instruction is ever
   elided or merged; the compiler only removes host-side work whose
   absence is unobservable:

   - decode dispatch and operand resolution (bound in the closure);
   - the qualifying-predicate read for qp = p0 (p0 is architecturally
     always true, so the predicated-off path is provably dead);
   - NaT reads of immediate operands (an immediate's NaT is false);
   - arithmetic on a discarded destination when it cannot fault;
   - the per-instruction read of the live flowtrace flag (each block is
     specialised for one value of [flowtrace.enabled] and refused when
     the flag no longer matches);
   - per-instruction [instructions]/[slots_by_prov] bumps (batched per
     block and unwound exactly on faults).

   Fuel accounting stays precise: a block is only entered when the
   remaining budget covers its whole length, otherwise the tail is
   interpreted instruction-at-a-time.  Engine slicing, checkpoints and
   serve migration therefore see the same instruction boundaries as the
   interpreter.

   Blocks are invalidated when a guest store hits the synthetic code
   region (region 2, 8 bytes per instruction slot, watched via
   {!Shift_mem.Memory.watch}) — the conservative flush any translator
   performs on writes to code pages — and when [flowtrace.enabled]
   flips under a compiled block. *)

open Shift_isa
module Memory = Shift_mem.Memory
module Addr = Shift_mem.Addr

let hot_threshold = 8
let max_block_len = 64

(* The code region: instruction slot [pc] occupies the 8 bytes at
   [code_addr pc].  Region 2 is otherwise unused (0 = taint bitmap,
   1 = data/heap/stack, 3 = provenance shadow). *)
let code_base = Addr.in_region 2 0L
let code_addr pc = Addr.in_region 2 (Int64.of_int (pc * 8))

let is_terminator (op : Instr.op) =
  match op with
  | Instr.Br _ | Instr.Br_reg _ | Instr.Call _ | Instr.Call_reg _ | Instr.Ret
  | Instr.Chk_s _ | Instr.Halt | Instr.Syscall ->
      true
  | _ -> false

let stats (t : Cpu.t) = t.Cpu.sb.Cpu.sb_stats

let ft_enabled (t : Cpu.t) = t.Cpu.flowtrace.Flowtrace.enabled

(* The raw trace hook must fire before every instruction, so any machine
   with one runs on the interpreter. *)
let usable (t : Cpu.t) =
  t.Cpu.sb.Cpu.sb_on
  && (match t.Cpu.trace with None -> true | Some _ -> false)
  (* compiled blocks bypass the per-instruction hook, so a decoupled
     tracking backend forces interpretation *)
  && not (Shift_tracking.Tracking.per_instr t.Cpu.tracking)

(* Compose the per-instruction closures into one body, four at a time so
   a 64-instruction block costs ~16 nested frames instead of 64. *)
let rec seq (fs : (Cpu.t -> unit) array) i n : Cpu.t -> unit =
  match n - i with
  | 1 -> fs.(i)
  | 2 ->
      let a = fs.(i) and b = fs.(i + 1) in
      fun t -> a t; b t
  | 3 ->
      let a = fs.(i) and b = fs.(i + 1) and c = fs.(i + 2) in
      fun t -> a t; b t; c t
  | _ ->
      let a = fs.(i) and b = fs.(i + 1) and c = fs.(i + 2) and d = fs.(i + 3) in
      if n - i = 4 then fun t -> a t; b t; c t; d t
      else
        let rest = seq fs (i + 4) n in
        fun t -> a t; b t; c t; d t; rest t

(* ---------- invalidation ---------- *)

let invalidate_range (t : Cpu.t) ~p0 ~p1 =
  let sb = t.Cpu.sb in
  let blocks = sb.Cpu.sb_blocks in
  let hi = min p1 (Array.length blocks - 1) in
  let lo = max 0 (p0 - max_block_len + 1) in
  for e = lo to hi do
    match blocks.(e) with
    | Some b when b.Cpu.sb_entry + b.Cpu.sb_len > p0 ->
        blocks.(e) <- None;
        sb.Cpu.sb_stats.Stats.sb_invalidations <-
          sb.Cpu.sb_stats.Stats.sb_invalidations + 1
    | _ -> ()
  done

(* A store landed in [a, a+len) inside the watched code region: drop
   every compiled block whose instruction span covers a written slot. *)
let on_code_write (t : Cpu.t) a len =
  let off0 =
    if Int64.unsigned_compare a code_base < 0 then 0L
    else Int64.sub a code_base
  in
  let off1 = Int64.add (Int64.sub a code_base) (Int64.of_int (len - 1)) in
  let p0 = Int64.to_int (Int64.shift_right_logical off0 3) in
  let p1 = Int64.to_int (Int64.shift_right_logical off1 3) in
  invalidate_range t ~p0 ~p1

let ensure_watch (t : Cpu.t) =
  let sb = t.Cpu.sb in
  if not sb.Cpu.sb_watched then begin
    sb.Cpu.sb_watched <- true;
    let size = Program.size t.Cpu.program in
    if size > 0 then
      Memory.watch t.Cpu.mem ~lo:code_base ~hi:(code_addr size)
        (fun a len -> on_code_write t a len)
  end

(* ---------- block discovery and compilation ---------- *)

let compile_block (t : Cpu.t) entry =
  ensure_watch t;
  let sb = t.Cpu.sb in
  let decoded = t.Cpu.decoded in
  let size = Program.size t.Cpu.program in
  let ft = ft_enabled t in
  let len = ref 0 in
  let stop = ref false in
  while (not !stop) && !len < max_block_len && entry + !len < size do
    let d = decoded.(entry + !len) in
    incr len;
    if is_terminator d.Decode.op then stop := true
  done;
  let len = !len in
  let fs = Array.init len (fun i -> Cpu.compile_instr decoded ~ft (entry + i)) in
  let provs =
    Array.init len (fun i -> decoded.(entry + i).Decode.prov_index)
  in
  let prov_counts = Array.make Prov.card 0 in
  Array.iter (fun p -> prov_counts.(p) <- prov_counts.(p) + 1) provs;
  sb.Cpu.sb_blocks.(entry) <-
    Some
      {
        Cpu.sb_entry = entry;
        sb_len = len;
        sb_ft = ft;
        sb_provs = provs;
        sb_prov_counts = prov_counts;
        sb_body = seq fs 0 len;
      };
  sb.Cpu.sb_stats.Stats.sb_compiled <- sb.Cpu.sb_stats.Stats.sb_compiled + 1

(* ---------- the block driver ---------- *)

(* Execute one compiled block.  [instructions] and [slots_by_prov] are
   bumped for the whole block up front; if an exception cuts the block
   short, the unexecuted tail is unwound using the block's
   straight-line shape (the faulting instruction is [t.ip], so exactly
   [ip - entry + 1] instructions retired).  Adds the instructions spent
   to [spent] and stores a terminal outcome, if any, in [out]. *)
let exec_block (t : Cpu.t) (b : Cpu.sb_block) spent out =
  let st = t.Cpu.stats in
  st.Stats.instructions <- st.Stats.instructions + b.Cpu.sb_len;
  let sp = st.Stats.slots_by_prov in
  let pc = b.Cpu.sb_prov_counts in
  for i = 0 to Array.length pc - 1 do
    sp.(i) <- sp.(i) + Array.unsafe_get pc i
  done;
  let ft = t.Cpu.flowtrace in
  let batching = b.Cpu.sb_ft in
  if batching then Flowtrace.begin_batch ft;
  match b.Cpu.sb_body t with
  | () ->
      if batching then Flowtrace.end_batch ft;
      spent := !spent + b.Cpu.sb_len
  | exception e ->
      if batching then Flowtrace.end_batch ft;
      let executed = t.Cpu.ip - b.Cpu.sb_entry + 1 in
      if executed < b.Cpu.sb_len then begin
        st.Stats.instructions <- st.Stats.instructions - (b.Cpu.sb_len - executed);
        for k = executed to b.Cpu.sb_len - 1 do
          let p = b.Cpu.sb_provs.(k) in
          sp.(p) <- sp.(p) - 1
        done
      end;
      (match e with
      | Cpu.Fault_exn f -> out := Some (Cpu.Faulted (f, t.Cpu.ip))
      | Cpu.Halt_exn v | Cpu.Exit_requested v -> out := Some (Cpu.Exited v)
      | e -> raise e);
      spent := !spent + executed

(* Interpret from the current ip up to and including the next block
   terminator (or until the budget, a terminal outcome, or a pc with a
   compiled block).  Used when a region is not hot yet and when the
   remaining budget cannot cover a whole compiled block. *)
let interp_to_boundary (t : Cpu.t) ~limit spent out =
  let sb = t.Cpu.sb in
  let size = Program.size t.Cpu.program in
  let stop = ref false in
  while (not !stop) && !out = None && !spent < limit do
    let ip = t.Cpu.ip in
    let boundary =
      ip < 0 || ip >= size || is_terminator t.Cpu.decoded.(ip).Decode.op
    in
    (match Cpu.step t with Some o -> out := Some o | None -> ());
    incr spent;
    sb.Cpu.sb_stats.Stats.sb_fallback <- sb.Cpu.sb_stats.Stats.sb_fallback + 1;
    if boundary then stop := true
    else begin
      let ip' = t.Cpu.ip in
      if
        ip' >= 0 && ip' < size
        && match sb.Cpu.sb_blocks.(ip') with Some _ -> true | None -> false
      then stop := true
    end
  done

(* Run up to [limit] instructions through the block cache.  Returns the
   instructions actually spent (exact, for engine slicing) and the
   terminal outcome if one occurred.  Falls back to pure interpretation
   when the machine is not [usable].  Cycle finalisation is the
   caller's job, as with [Cpu.step]. *)
let steps (t : Cpu.t) ~limit =
  let spent = ref 0 in
  let out = ref None in
  (try
     if not (usable t) then
       while !out = None && !spent < limit do
         incr spent;
         match Cpu.step t with Some o -> out := Some o | None -> ()
       done
     else begin
       let sb = t.Cpu.sb in
       let size = Program.size t.Cpu.program in
       while !out = None && !spent < limit do
         let ip = t.Cpu.ip in
         if ip < 0 || ip >= size then begin
           (* out of range: one interpreter step produces the fault *)
           incr spent;
           match Cpu.step t with Some o -> out := Some o | None -> ()
         end
         else begin
           match sb.Cpu.sb_blocks.(ip) with
           | Some b when b.Cpu.sb_ft <> ft_enabled t ->
               (* tracing was toggled under a compiled block: recompile *)
               sb.Cpu.sb_blocks.(ip) <- None;
               sb.Cpu.sb_stats.Stats.sb_invalidations <-
                 sb.Cpu.sb_stats.Stats.sb_invalidations + 1
           | Some b when b.Cpu.sb_len <= limit - !spent ->
               sb.Cpu.sb_stats.Stats.sb_hits <-
                 sb.Cpu.sb_stats.Stats.sb_hits + 1;
               exec_block t b spent out
           | Some _ ->
               (* the budget cannot cover the block: interpret the tail
                  so the slice boundary is instruction-exact *)
               interp_to_boundary t ~limit spent out
           | None ->
               sb.Cpu.sb_stats.Stats.sb_misses <-
                 sb.Cpu.sb_stats.Stats.sb_misses + 1;
               let c = sb.Cpu.sb_hot.(ip) + 1 in
               sb.Cpu.sb_hot.(ip) <- c;
               if c >= hot_threshold then compile_block t ip
               else interp_to_boundary t ~limit spent out
         end
       done
     end
   with Cpu.Exit_requested v -> out := Some (Cpu.Exited v));
  (* [Cpu.step] finalises the cycle count on terminal outcomes (via
     [finish]); mirror that for outcomes produced by compiled blocks *)
  (match !out with
  | Some _ -> t.Cpu.stats.Stats.cycles <- Pipeline.cycles t.Cpu.pipe
  | None -> ());
  (!spent, !out)

let run_for (t : Cpu.t) ~budget =
  if not (usable t) then Cpu.run_for t ~budget
  else
    Fun.protect
      ~finally:(fun () ->
        t.Cpu.stats.Stats.cycles <- Pipeline.cycles t.Cpu.pipe)
      (fun () ->
        let _spent, out = steps t ~limit:budget in
        match out with Some o -> `Finished o | None -> `Yielded)
