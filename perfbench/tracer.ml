(* Spans recorded around the benchmark's calls into each layer.

   A span is (name, start, stop, parent, request id).  Spans live in
   memory while the run measures and are summarised (or written out)
   when it ends.  With tracing off, [span] just calls its function, so
   untraced runs pay one branch per call.

   The main domain keeps a stack of open spans, so nesting gives each
   span its parent; work observed on other domains (scheduler hooks)
   is added with an explicit parent through [add]. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 for a root *)
  req : int;  (** request id, -1 when the span serves no request *)
}

let enabled = ref false
let lock = Mutex.create ()
let next_id = ref 0
let recorded : span list ref = ref []
let stack : int list ref = ref []

let reset () =
  Mutex.lock lock;
  next_id := 0;
  recorded := [];
  stack := [];
  Mutex.unlock lock

let fresh_id () =
  Mutex.lock lock;
  let id = !next_id in
  incr next_id;
  Mutex.unlock lock;
  id

let push s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

let current () = match !stack with id :: _ -> id | [] -> -1

(* record a span that ran elsewhere (another domain) or was timed by
   the caller *)
let add ?(parent = -1) ?(req = -1) name start stop =
  if !enabled then push { id = fresh_id (); name; start; stop; parent; req }

(* run [f] inside a span, on the main domain *)
let span ?(req = -1) name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = current () in
    stack := id :: !stack;
    let start = Util.now () in
    let finish () =
      let stop = Util.now () in
      stack := List.tl !stack;
      push { id; name; start; stop; parent; req }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let spans () = List.rev !recorded

(* ---------- self time ---------- *)

(* total length of the union of intervals, clipped to [lo, hi] *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* a span's self time: its duration minus the part of it its children
   cover (children may overlap one another when they ran on several
   domains; the union is subtracted once) *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* self time summed per span name *)
let self_by_name spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. self))
    (self_times spans);
  tbl

let self_of tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name)

(* durations of every span with this name *)
let durations spans name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
    spans

(* JSONL dump, one span per line, for reading a traced run by hand *)
let write_jsonl path spans =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"start\":%.6f,\"stop\":%.6f,\"parent\":%d,\"req\":%d}\n"
            s.id s.name s.start s.stop s.parent s.req)
        spans)
