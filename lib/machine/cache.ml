type t = {
  line_shift : int;
  set_count : int;
  set_mask : int;  (* set_count - 1 when a power of two, else -1 *)
  lines : int array;  (* line address per set; -1 = invalid *)
  mutable hit_count : int;
  mutable miss_count : int;
}

let miss_penalty = 12

let log2 n =
  let rec go k acc = if acc >= n then k else go (k + 1) (acc * 2) in
  go 0 1

let create ?(size_kb = 16) ?(line_bytes = 64) () =
  if size_kb <= 0 then
    invalid_arg (Printf.sprintf "Cache.create: size_kb must be positive (got %d)" size_kb);
  if line_bytes <= 0 then
    invalid_arg
      (Printf.sprintf "Cache.create: line_bytes must be positive (got %d)" line_bytes);
  if line_bytes < 8 then
    invalid_arg
      (Printf.sprintf "Cache.create: line_bytes must be at least 8 (got %d)" line_bytes);
  if line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Cache.create: line_bytes must be a power of two (got %d)"
         line_bytes);
  if line_bytes > size_kb * 1024 then
    invalid_arg
      (Printf.sprintf "Cache.create: line_bytes %d exceeds the %d KB cache" line_bytes
         size_kb);
  let set_count = size_kb * 1024 / line_bytes in
  {
    line_shift = log2 line_bytes;
    set_count;
    set_mask = (if set_count land (set_count - 1) = 0 then set_count - 1 else -1);
    lines = Array.make set_count (-1);
    hit_count = 0;
    miss_count = 0;
  }

(* The line address [a >>> line_shift] of the packed address [pa]
   (see {!Shift_mem.Addr.pack}): lines are at least 8 bytes, so it is
   below 2^61 and an exact [int]. *)
let line_of t pa =
  ((pa lsr Shift_mem.Addr.impl_bits) lsl (Shift_mem.Addr.region_shift - t.line_shift))
  lor ((pa land ((1 lsl Shift_mem.Addr.impl_bits) - 1)) lsr t.line_shift)

(* the power-of-two geometry (the default) indexes with a mask; the
   remainder below computes the same set, one division slower, for
   exotic sizes (line addresses are non-negative) *)
let set_of_line t line =
  if t.set_mask >= 0 then line land t.set_mask else line mod t.set_count

let set_of t pa = set_of_line t (line_of t pa)

let access t pa =
  let line = line_of t pa in
  let set = set_of_line t line in
  if Array.unsafe_get t.lines set = line then begin
    t.hit_count <- t.hit_count + 1;
    true
  end
  else begin
    Array.unsafe_set t.lines set line;
    t.miss_count <- t.miss_count + 1;
    false
  end

let hits t = t.hit_count
let misses t = t.miss_count

(* ---------- checkpoint/restore ---------- *)

type snap = {
  s_lines : int64 array;
  s_hits : int;
  s_misses : int;
  s_line_shift : int;
}

let export t =
  {
    s_lines = Array.map Int64.of_int t.lines;
    s_hits = t.hit_count;
    s_misses = t.miss_count;
    s_line_shift = t.line_shift;
  }

let import t s =
  if Array.length s.s_lines <> t.set_count then
    invalid_arg "Cache.import: set count mismatch";
  if s.s_line_shift <> t.line_shift then
    invalid_arg "Cache.import: line size mismatch";
  (* a resident line is an address shifted right by line_shift; -1 is
     an empty set *)
  let top = Int64.shift_left 1L (64 - t.line_shift) in
  Array.iter
    (fun l ->
      if Int64.compare l (-1L) < 0 || Int64.compare l top >= 0 then
        invalid_arg "Cache.import: line address out of range")
    s.s_lines;
  Array.iteri (fun i l -> t.lines.(i) <- Int64.to_int l) s.s_lines;
  t.hit_count <- s.s_hits;
  t.miss_count <- s.s_misses
