module Event = Abonn_obs.Event

type point = {
  t : float;
  seq : int;
  calls : int;
  nodes : int;
  max_depth : int;
  frontier : int;
  best_reward : float;
}

let of_events events =
  let m = Summary.create () in
  List.rev
    (List.fold_left
       (fun points env ->
         Summary.feed m env;
         if Summary.progress env.Event.event then begin
           let r = Summary.run m in
           { t = env.Event.t; seq = env.Event.seq; calls = r.Summary.calls;
             nodes = r.Summary.nodes; max_depth = r.Summary.max_depth;
             frontier = r.Summary.frontier; best_reward = r.Summary.best_reward }
           :: points
         end
         else points)
       [] events)

let fnum v =
  if v = infinity then "inf"
  else if v = neg_infinity then "-inf"
  else if Float.is_nan v then "nan"
  else Printf.sprintf "%.17g" v

let to_csv points =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "t,seq,calls,nodes,max_depth,frontier,best_reward\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%.6f,%d,%d,%d,%d,%d,%s\n" p.t p.seq p.calls p.nodes p.max_depth
           p.frontier (fnum p.best_reward)))
    points;
  Buffer.contents buf
