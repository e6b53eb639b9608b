module Event = Abonn_obs.Event

type node = {
  gamma : string;
  token : string;
  depth : int;
  phat : float;
  reward : float;
  seq : int;
  mutable children : node list;
}

type shape = {
  nodes : int;
  max_depth : int;
  depth_counts : int array;
  interior : int;
  leaves_proved : int;
  leaves_cex : int;
  leaves_open : int;
  exact_verified : int;
  exact_falsified : int;
  orphans : int;
}

type t = { root : node option; shape : shape }

let last_token gamma =
  match String.rindex_opt gamma '.' with
  | Some i -> String.sub gamma (i + 1) (String.length gamma - i - 1)
  | None -> gamma

let build events =
  let by_gamma : (string, node) Hashtbl.t = Hashtbl.create 256 in
  let root = ref None and orphans = ref 0 in
  let exact_verified = ref 0 and exact_falsified = ref 0 in
  List.iter
    (fun env ->
      match env.Event.event with
      | Event.Node_evaluated { depth; gamma; phat; reward; _ } ->
        let node =
          { gamma; token = last_token gamma; depth; phat; reward; seq = env.Event.seq;
            children = [] }
        in
        (* Re-evaluations of the same gamma should not occur; keep the first. *)
        if not (Hashtbl.mem by_gamma gamma) then begin
          Hashtbl.add by_gamma gamma node;
          match Summary.parent_gamma gamma with
          | None -> root := Some node
          | Some pg ->
            (match Hashtbl.find_opt by_gamma pg with
             | Some parent -> parent.children <- parent.children @ [ node ]
             | None -> incr orphans)
        end
      | Event.Exact_leaf { verified; _ } ->
        if verified then incr exact_verified else incr exact_falsified
      | _ -> ())
    events;
  let run = Summary.of_events events in
  let interior = ref 0 and proved = ref 0 and cex = ref 0 and open_ = ref 0 in
  Hashtbl.iter
    (fun _ n ->
      if n.children <> [] then incr interior
      else if n.reward = neg_infinity then incr proved
      else if n.reward = infinity then incr cex
      else incr open_)
    by_gamma;
  { root = !root;
    shape =
      { nodes = run.Summary.nodes;
        max_depth = run.Summary.max_depth;
        depth_counts = run.Summary.depth_counts;
        interior = !interior;
        leaves_proved = !proved;
        leaves_cex = !cex;
        leaves_open = !open_;
        exact_verified = !exact_verified;
        exact_falsified = !exact_falsified;
        orphans = !orphans } }

(* --- rendering --- *)

let shape_to_string s =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "nodes: %d (interior %d)  max depth: %d\n" s.nodes s.interior
       s.max_depth);
  Buffer.add_string buf
    (Printf.sprintf "leaves: %d proved, %d counterexample, %d open\n" s.leaves_proved
       s.leaves_cex s.leaves_open);
  if s.exact_verified + s.exact_falsified > 0 then
    Buffer.add_string buf
      (Printf.sprintf "exact leaves: %d verified, %d falsified\n" s.exact_verified
         s.exact_falsified);
  if s.orphans > 0 then
    Buffer.add_string buf
      (Printf.sprintf "orphans: %d (parent missing — truncated trace?)\n" s.orphans);
  let vmax = Array.fold_left Stdlib.max 1 s.depth_counts in
  Buffer.add_string buf "depth histogram:\n";
  Array.iteri
    (fun d n ->
      let width = n * 40 / vmax in
      Buffer.add_string buf (Printf.sprintf "  %3d %6d %s\n" d n (String.make width '#')))
    s.depth_counts;
  Buffer.contents buf

let fnum v =
  if v = infinity then "+inf"
  else if v = neg_infinity then "-inf"
  else if Float.is_nan v then "nan"
  else Printf.sprintf "%.4f" v

let render_ascii ?(max_nodes = 200) root =
  let buf = Buffer.create 1024 in
  let printed = ref 0 and suppressed = ref 0 in
  let rec go prefix is_last node =
    if !printed >= max_nodes then incr suppressed
    else begin
      incr printed;
      let connector =
        if node.depth = 0 then "" else if is_last then "`-- " else "|-- "
      in
      Buffer.add_string buf
        (Printf.sprintf "%s%s%s  phat=%s reward=%s\n" prefix connector node.token
           (fnum node.phat) (fnum node.reward));
      let child_prefix =
        if node.depth = 0 then "" else prefix ^ (if is_last then "    " else "|   ")
      in
      let rec children = function
        | [] -> ()
        | [ c ] -> go child_prefix true c
        | c :: rest ->
          go child_prefix false c;
          children rest
      in
      children node.children
    end
  in
  go "" true root;
  if !suppressed > 0 then
    Buffer.add_string buf (Printf.sprintf "... (%d more nodes suppressed)\n" !suppressed);
  Buffer.contents buf

let render_dot ?(max_nodes = 2000) root =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "digraph bab {\n";
  Buffer.add_string buf "  node [shape=box, style=filled, fontname=\"monospace\"];\n";
  let count = ref 0 in
  let esc s =
    String.concat "" (List.map (function '"' -> "\\\"" | c -> String.make 1 c)
                        (List.init (String.length s) (String.get s)))
  in
  let color n =
    if n.children <> [] then "lightblue"
    else if n.reward = neg_infinity then "palegreen"
    else if n.reward = infinity then "salmon"
    else "lightyellow"
  in
  let rec go n =
    if !count < max_nodes then begin
      incr count;
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\\nphat=%s r=%s\", fillcolor=%s];\n" n.seq
           (esc n.token) (fnum n.phat) (fnum n.reward) (color n));
      List.iter
        (fun c ->
          if !count < max_nodes then begin
            go c;
            Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" n.seq c.seq)
          end)
        n.children
    end
  in
  go root;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
