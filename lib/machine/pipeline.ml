type t = {
  mutable cycle : int;
  mutable slots_used : int;
  mutable mem_used : int;
  reg_ready : int array;
  pred_ready : int array;
}

let width = 6
let mem_ports = 2

let create () =
  {
    cycle = 0;
    slots_used = 0;
    mem_used = 0;
    reg_ready = Array.make Shift_isa.Reg.count 0;
    pred_ready = Array.make Shift_isa.Pred.count 0;
  }

let next_cycle t =
  t.cycle <- t.cycle + 1;
  t.slots_used <- 0;
  t.mem_used <- 0

let advance_to t c =
  if c > t.cycle then begin
    t.cycle <- c;
    t.slots_used <- 0;
    t.mem_used <- 0
  end

let issue t ~executing ~reads ~writes ~pred_writes ~qp ~is_mem ~latency =
  advance_to t t.pred_ready.(qp);
  if executing then
    for k = 0 to Array.length reads - 1 do
      advance_to t t.reg_ready.(Array.unsafe_get reads k)
    done;
  while
    t.slots_used >= width || (executing && is_mem && t.mem_used >= mem_ports)
  do
    next_cycle t
  done;
  t.slots_used <- t.slots_used + 1;
  if executing && is_mem then t.mem_used <- t.mem_used + 1;
  if executing then begin
    for k = 0 to Array.length writes - 1 do
      let r = Array.unsafe_get writes k in
      if r <> Shift_isa.Reg.zero then t.reg_ready.(r) <- t.cycle + latency
    done;
    for k = 0 to Array.length pred_writes - 1 do
      let p = Array.unsafe_get pred_writes k in
      if p <> Shift_isa.Pred.p0 then t.pred_ready.(p) <- t.cycle + 1
    done
  end

(* ---------- specialised issue, for compiled superblocks ----------

   [compile_issue] bakes one instruction's operand shape into a closure
   that performs exactly [issue ~executing:true]'s scoreboard
   transitions: dead destination writes (r0 / p0) are filtered out at
   compile time, the qualifying-predicate wait is dropped for qp = p0
   (p0 is never scoreboarded, so its ready cycle is always 0), the
   operand loops are unrolled for the common arities, and the
   issue-group while loop is an if (one [next_cycle] resets both
   counters below their limits).  [latency] is baked in too, so the
   closure takes one argument and is entered without an arity check; a
   load builds one closure for a cache hit and one for a miss. *)

(* The inlined pieces of a compiled issue.  Register indices are
   range-checked once, when the closure is built, so the scoreboard is
   read without bounds checks. *)
let[@inline] wait t r =
  let c = Array.unsafe_get t.reg_ready r in
  if c > t.cycle then begin
    t.cycle <- c;
    t.slots_used <- 0;
    t.mem_used <- 0
  end

let[@inline] group t ~is_mem =
  if t.slots_used >= width || (is_mem && t.mem_used >= mem_ports) then begin
    t.cycle <- t.cycle + 1;
    t.slots_used <- 0;
    t.mem_used <- 0
  end;
  t.slots_used <- t.slots_used + 1;
  if is_mem then t.mem_used <- t.mem_used + 1

let compile_issue ~reads ~writes ~pred_writes ~qp ~is_mem ~latency =
  let check r =
    if r < 0 || r >= Shift_isa.Reg.count then
      invalid_arg "Pipeline.compile_issue: register out of range"
  in
  Array.iter check reads;
  Array.iter check writes;
  let live_writes =
    Array.of_list
      (List.filter (fun r -> r <> Shift_isa.Reg.zero) (Array.to_list writes))
  in
  let live_preds =
    Array.of_list
      (List.filter (fun p -> p <> Shift_isa.Pred.p0) (Array.to_list pred_writes))
  in
  let qp_live = qp <> Shift_isa.Pred.p0 in
  let finish t =
    for k = 0 to Array.length live_writes - 1 do
      Array.unsafe_set t.reg_ready (Array.unsafe_get live_writes k) (t.cycle + latency)
    done;
    for k = 0 to Array.length live_preds - 1 do
      t.pred_ready.(Array.unsafe_get live_preds k) <- t.cycle + 1
    done
  in
  match
    (qp_live, Array.length reads, Array.length live_writes,
     Array.length live_preds)
  with
  | false, 0, 0, 0 -> fun t -> group t ~is_mem
  | false, 1, 1, 0 ->
      let r0 = reads.(0) and w0 = live_writes.(0) in
      fun t ->
        wait t r0;
        group t ~is_mem;
        Array.unsafe_set t.reg_ready w0 (t.cycle + latency)
  | false, 2, 1, 0 ->
      let r0 = reads.(0) and r1 = reads.(1) and w0 = live_writes.(0) in
      fun t ->
        wait t r0;
        wait t r1;
        group t ~is_mem;
        Array.unsafe_set t.reg_ready w0 (t.cycle + latency)
  | false, 0, 1, 0 ->
      let w0 = live_writes.(0) in
      fun t ->
        group t ~is_mem;
        Array.unsafe_set t.reg_ready w0 (t.cycle + latency)
  | false, 1, 0, 0 ->
      let r0 = reads.(0) in
      fun t ->
        wait t r0;
        group t ~is_mem
  | false, 2, 0, 0 ->
      let r0 = reads.(0) and r1 = reads.(1) in
      fun t ->
        wait t r0;
        wait t r1;
        group t ~is_mem
  | false, 1, 0, 2 ->
      (* a compare against an immediate, or tnat *)
      let r0 = reads.(0) and p0 = live_preds.(0) and p1 = live_preds.(1) in
      fun t ->
        wait t r0;
        group t ~is_mem;
        t.pred_ready.(p0) <- t.cycle + 1;
        t.pred_ready.(p1) <- t.cycle + 1
  | false, 2, 0, 2 ->
      let r0 = reads.(0) and r1 = reads.(1) in
      let p0 = live_preds.(0) and p1 = live_preds.(1) in
      fun t ->
        wait t r0;
        wait t r1;
        group t ~is_mem;
        t.pred_ready.(p0) <- t.cycle + 1;
        t.pred_ready.(p1) <- t.cycle + 1
  | false, _, _, _ ->
      fun t ->
        for k = 0 to Array.length reads - 1 do
          wait t (Array.unsafe_get reads k)
        done;
        group t ~is_mem;
        finish t
  | true, _, _, _ ->
      fun t ->
        advance_to t t.pred_ready.(qp);
        for k = 0 to Array.length reads - 1 do
          wait t (Array.unsafe_get reads k)
        done;
        group t ~is_mem;
        finish t

(* The predicated-off half of [issue]: the slot is occupied after the
   qualifying predicate is ready, but no operand is waited for or
   produced (and a memory port is not consumed). *)
let compile_issue_off ~qp =
  fun t ->
    advance_to t t.pred_ready.(qp);
    if t.slots_used >= width then next_cycle t;
    t.slots_used <- t.slots_used + 1

let redirect t ~penalty =
  t.cycle <- t.cycle + penalty;
  t.slots_used <- 0;
  t.mem_used <- 0

let stall t n =
  if n > 0 then begin
    t.cycle <- t.cycle + n;
    t.slots_used <- 0;
    t.mem_used <- 0
  end

let cycles t = t.cycle

(* ---------- checkpoint/restore ---------- *)

type snap = {
  s_cycle : int;
  s_slots_used : int;
  s_mem_used : int;
  s_reg_ready : int array;
  s_pred_ready : int array;
}

let export t =
  {
    s_cycle = t.cycle;
    s_slots_used = t.slots_used;
    s_mem_used = t.mem_used;
    s_reg_ready = Array.copy t.reg_ready;
    s_pred_ready = Array.copy t.pred_ready;
  }

let import t s =
  if
    Array.length s.s_reg_ready <> Array.length t.reg_ready
    || Array.length s.s_pred_ready <> Array.length t.pred_ready
  then invalid_arg "Pipeline.import: scoreboard size mismatch";
  t.cycle <- s.s_cycle;
  t.slots_used <- s.s_slots_used;
  t.mem_used <- s.s_mem_used;
  Array.blit s.s_reg_ready 0 t.reg_ready 0 (Array.length t.reg_ready);
  Array.blit s.s_pred_ready 0 t.pred_ready 0 (Array.length t.pred_ready)
