(* Spans and counters recorded around the benchmark's calls into the
   libraries.

   A span is [name, workload, call_id, parent, start_ns, end_ns]: the
   layer boundary it times, the workload it belongs to, the top-level
   call it serves (spans of one call share the id), and the span that
   opened it ([-1] for a root).  Spans and named counters are kept in
   memory and written as JSONL when the run ends.  A disabled recorder
   costs one branch per span and records nothing. *)

type span = {
  id : int;
  name : string;
  call_id : int;
  parent : int;
  start_ns : int;
  end_ns : int;
}

type t = {
  workload : string;
  clock : unit -> int;
  mutable enabled : bool;
  mutable next_id : int;
  mutable open_ : int list;  (** innermost first *)
  mutable call : int;
  mutable spans : span list;  (** most recent first *)
  counters : (string, float) Hashtbl.t;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create ?(clock = now_ns) ~workload () =
  {
    workload;
    clock;
    enabled = false;
    next_id = 0;
    open_ = [];
    call = -1;
    spans = [];
    counters = Hashtbl.create 16;
  }

let set_enabled t b = t.enabled <- b
let enabled t = t.enabled
let set_call t id = t.call <- id

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_ with p :: _ -> p | [] -> -1 in
    let call_id = t.call in
    t.open_ <- id :: t.open_;
    let start_ns = t.clock () in
    let close () =
      let end_ns = t.clock () in
      t.open_ <- List.tl t.open_;
      t.spans <- { id; name; call_id; parent; start_ns; end_ns } :: t.spans
    in
    Fun.protect ~finally:close f
  end

let count t name v =
  if t.enabled then
    Hashtbl.replace t.counters name
      (v +. Option.value (Hashtbl.find_opt t.counters name) ~default:0.0)

let counter t name = Option.value (Hashtbl.find_opt t.counters name) ~default:0.0
let spans t = List.rev t.spans

(* ---- analysis -------------------------------------------------------- *)

let duration s = s.end_ns - s.start_ns

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (acc, Some (ca, max cb b))
            else (acc + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* Self time of every span: its duration minus the part of its
   interval its direct children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.end_ns)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      (s, duration s - covered ~lo:s.start_ns ~hi:s.end_ns kids))
    spans

(* Total self time per span name, in ns. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name
        (self + Option.value (Hashtbl.find_opt tbl s.name) ~default:0))
    (self_times spans);
  tbl

let self_ns spans name =
  Option.value (Hashtbl.find_opt (self_by_name spans) name) ~default:0

(* Durations (ns) of every span called [name]. *)
let durations spans name =
  Array.of_list
    (List.filter_map
       (fun s -> if s.name = name then Some (duration s) else None)
       spans)

let total_ns spans name = Array.fold_left ( + ) 0 (durations spans name)

(* ---- output ---------------------------------------------------------- *)

let to_jsonl t =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Printf.bprintf b
        "{\"name\":%s,\"workload\":%s,\"call_id\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        (Json.string s.name) (Json.string t.workload) s.call_id s.parent
        s.start_ns s.end_ns)
    (spans t);
  let names =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.counters [])
  in
  List.iter
    (fun k ->
      Printf.bprintf b "{\"counter\":%s,\"workload\":%s,\"value\":%s}\n"
        (Json.string k) (Json.string t.workload) (Json.number (counter t k)))
    names;
  Buffer.contents b
