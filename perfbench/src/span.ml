(* Spans recorded around the benchmark's calls into the library.

   A span has a name, a start and an end, the span that encloses it, and
   the op it belongs to.  Spans stay in memory during the run and are
   written out when it ends.  Without a tracer, [time] only measures. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** enclosing span's id, or -1 at top level *)
  start : float;
  stop : float;
}

type t = {
  mutable spans : span list;  (** most recently ended first *)
  mutable next : int;
  mutable open_ : int list;  (** enclosing spans, innermost first *)
}

let now = Unix.gettimeofday
let create () = { spans = []; next = 0; open_ = [] }

(* [f ()] and the seconds it took. *)
let measure f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let time tr ~op name f =
  match tr with
  | None -> measure f
  | Some t ->
      let id = t.next in
      t.next <- id + 1;
      let parent = match t.open_ with p :: _ -> p | [] -> -1 in
      t.open_ <- id :: t.open_;
      let start = now () in
      let r = Fun.protect ~finally:(fun () -> t.open_ <- List.tl t.open_) f in
      let stop = now () in
      t.spans <- { id; name; op; parent; start; stop } :: t.spans;
      (r, stop -. start)

let duration s = s.stop -. s.start
let spans t = List.rev t.spans

let total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0.0 t.spans

(* Self time: a span's duration minus the part its child spans cover.
   Children of one span run one after another, so their durations add. *)
let self_times t =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    t.spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)))
    (spans t)

(* One JSON object per line, in the order spans ended, times in seconds
   from the earliest start. *)
let write t path =
  let origin = List.fold_left (fun acc s -> Float.min acc s.start) infinity t.spans in
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"op\": %d, \"parent\": %d, \"start_s\": %.9f, \
         \"end_s\": %.9f, \"self_s\": %.9f}\n"
        s.id s.name s.op s.parent (s.start -. origin) (s.stop -. origin) self)
    (self_times t);
  close_out oc
