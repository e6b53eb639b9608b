(** Anytime-progress curves: search state as a function of trace time.

    One {!point} is a snapshot of the run model ({!Summary}) taken at
    each search-progress event ({!Summary.progress}: node evaluated,
    frontier pop, exact leaf, verdict): AppVer calls, nodes, max depth,
    frontier and best reward, the time-to-bound curves used to compare
    exploration orders (Bunel et al. style).  The counting rules are the
    model's, so the last point of a finished run shows the engine's own
    calls, nodes and max depth. *)

type point = {
  t : float;  (** trace-relative seconds *)
  seq : int;
  calls : int;
  nodes : int;
  max_depth : int;
  frontier : int;
  best_reward : float;
}

val of_events : Abonn_obs.Event.envelope list -> point list
(** Points in trace order (one per progress event). *)

val to_csv : point list -> string
(** Header [t,seq,calls,nodes,max_depth,frontier,best_reward] then one
    row per point; non-finite rewards are spelled [inf]/[-inf]/[nan]. *)
