(* Small helpers shared by the workloads: clocks, order statistics,
   /proc readers, the seeded RNG and the result line. *)

module J = Shift.Results

let now () = Unix.gettimeofday ()

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ---------- order statistics ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float (List.length xs)

(* Nearest-rank [p]-quantile, reported only when at least ten samples
   lie beyond it: [n - rank >= 10], where [rank = ceil (p * n)].  For
   p95 that needs n >= 200. *)
let min_beyond = 10

let rank p n = max 1 (int_of_float (Float.ceil ((p *. float n) -. 1e-9)))

let tail p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 || n - rank p n < min_beyond then None else Some a.(rank p n - 1)

let samples_needed p =
  let rec go n = if n - rank p n >= min_beyond then n else go (n + 1) in
  go 1

(* ---------- open-loop accounting ---------- *)

(* latency of a request answered at [answered], timed from when it was
   due (not from when it was sent), so a stall that delays sending
   shows up in every request it delays *)
let latency ~due ~answered = answered -. due

(* how late the generator sent a request *)
let lag ~due ~sent = Float.max 0. (sent -. due)

(* a run is valid only while its generator keeps up: at most 1% of
   requests may be sent later than [max_lag_frac] of the mean
   interarrival gap after they were due *)
let max_lag_frac = 0.5

let generator_ok ~lags ~mean_gap =
  let late = List.filter (fun l -> l > max_lag_frac *. mean_gap) lags in
  100 * List.length late <= List.length lags

(* ---------- seeded randomness ---------- *)

let rng seed salt = Random.State.make [| seed; salt; 0x5b1f |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a


(* ---------- /proc ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_proc path =
  (* /proc files report length 0: read until EOF *)
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      Buffer.contents b)

(* VmHWM of a process, in MB *)
let peak_rss_mb pid =
  let status = read_proc (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf
    (String.sub line 6 (String.length line - 6))
    " %d kB"
    (fun kb -> float kb /. 1024.)

(* user + system CPU seconds of a process (USER_HZ is 100 on Linux) *)
let cpu_seconds pid =
  let stat = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex stat ')' + 2 in
  let fields =
    String.split_on_char ' ' (String.sub stat after (String.length stat - after))
  in
  (* fields after the command: state is index 0, utime 11, stime 12 *)
  float (int_of_string (List.nth fields 11) + int_of_string (List.nth fields 12))
  /. 100.

(* ---------- scratch directory inside the checkout ---------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

let scratch_dir () =
  let root = ".perfbench-tmp" in
  (try Sys.mkdir root 0o755 with Sys_error _ -> ());
  let d = Filename.concat root (string_of_int (Unix.getpid ())) in
  rm_rf d;
  Sys.mkdir d 0o755;
  d

(* ---------- results ---------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* tally of checked operations *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    fail "check failed: %s" what
  end

(* the result line: correct exactly when no check failed *)
let result_line t metrics =
  J.to_string ~minify:true
    (J.Obj
       [
         ("correct", J.Bool (t.failed = 0));
         ("attempted", J.Int t.attempted);
         ("failed", J.Int t.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun mt ->
                  ( mt.name,
                    J.Obj
                      [ ("value", J.Float mt.value); ("unit", J.String mt.unit_) ]
                  ))
                metrics) );
       ])
