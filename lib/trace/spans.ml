(* The one event->span model behind [phases], [hotspots] and [watch].
   A span event is emitted when its span ends, so a child reaches the
   stream before its parent; each domain's open spans wait in a lane
   until a later event decides where they belong.  Each span then
   settles once into a cell, so memory is the distinct keys plus the
   spans still open. *)

module Event = Abonn_obs.Event

type key = { phase : string; depth : int; layer : int; nested : bool }
type cell = { key : key; calls : int; seconds : float }

type lane = {
  mutable bound : (string * int * float) option;
      (* appver, depth, elapsed of a bound_computed awaiting its
         bound_reuse, which can only be the lane's next event *)
  mutable lp : (float * float) list;  (* unclaimed (t, elapsed), newest first *)
  mutable attacks : (float * float * string) list;  (* unclaimed, newest first *)
}

type t = { settled : (key, int * float) Hashtbl.t; lanes : (int, lane) Hashtbl.t }

let create () = { settled = Hashtbl.create 64; lanes = Hashtbl.create 4 }

let settle tbl key elapsed =
  let calls, seconds = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (calls + 1, seconds +. elapsed)

let appver name depth layer = { phase = "appver." ^ name; depth; layer; nested = false }
let lp_exact depth = { phase = "lp.exact"; depth; layer = -1; nested = false }
let lp_in_appver = { phase = "lp.appver"; depth = -1; layer = -1; nested = true }
let attack name nested = { phase = "attack." ^ name; depth = -1; layer = -1; nested }

(* Settle a lane's open spans into [tbl] as if its stream ended here. *)
let close tbl lane =
  Option.iter (fun (name, depth, d) -> settle tbl (appver name depth 0) d) lane.bound;
  List.iter (fun (_, d) -> settle tbl (lp_exact (-1)) d) lane.lp;
  List.iter (fun (_, d, name) -> settle tbl (attack name false) d) lane.attacks

let feed m env =
  let t = env.Event.t and domain = Option.value ~default:0 env.Event.domain in
  let lane =
    match Hashtbl.find_opt m.lanes domain with
    | Some lane -> lane
    | None ->
      let lane = { bound = None; lp = []; attacks = [] } in
      Hashtbl.replace m.lanes domain lane;
      lane
  in
  (match (lane.bound, env.Event.event) with
   | Some (name, depth, d), Event.Bound_reuse { appver = a; depth = d'; from_layer; _ }
     when String.equal a name && d' = depth ->
     settle m.settled (appver name depth from_layer) d
   | Some (name, depth, d), _ -> settle m.settled (appver name depth 0) d
   | None, _ -> ());
  lane.bound <- None;
  (* a span ending at [at] is nested in this window *)
  let inside elapsed at = at >= t -. elapsed && at <= t in
  match env.Event.event with
  | Event.Bound_computed { appver; depth; elapsed; _ } ->
    let nested, open_ = List.partition (fun (at, _) -> inside elapsed at) lane.lp in
    List.iter (fun (_, d) -> settle m.settled lp_in_appver d) nested;
    lane.lp <- open_;
    lane.bound <- Some (appver, depth, elapsed)
  | Event.Lp_solved { elapsed; _ } -> lane.lp <- (t, elapsed) :: lane.lp
  | Event.Exact_leaf { depth; _ } ->
    List.iter (fun (_, d) -> settle m.settled (lp_exact depth) d) lane.lp;
    lane.lp <- []
  | Event.Attack_tried { attack = name; elapsed; _ } ->
    let nested, top =
      List.partition (fun (at, _, _) -> inside elapsed at) lane.attacks
    in
    List.iter (fun (_, d, name) -> settle m.settled (attack name true) d) nested;
    lane.attacks <- (t, elapsed, name) :: top
  (* a verdict ends its run: no span still open can be nested later *)
  | Event.Verdict_reached _ | Event.Run_finished _ ->
    Hashtbl.iter (fun _ lane -> close m.settled lane) m.lanes;
    Hashtbl.reset m.lanes
  | _ -> ()

let cells m =
  let tbl = Hashtbl.copy m.settled in
  Hashtbl.iter (fun _ lane -> close tbl lane) m.lanes;
  Hashtbl.fold (fun key (calls, seconds) acc -> { key; calls; seconds } :: acc) tbl []
  |> List.sort (fun a b -> compare a.key b.key)

let of_events events =
  let m = create () in
  List.iter (feed m) events;
  cells m

let total keep cells =
  List.fold_left
    (fun (calls, seconds) c ->
      if keep c.key then (calls + c.calls, seconds +. c.seconds) else (calls, seconds))
    (0, 0.0) cells

let capacity ~wall ~domains = wall *. float_of_int (Stdlib.max 1 domains)

let domains_suffix domains =
  if domains > 1 then Printf.sprintf " × %d domains" domains else ""
