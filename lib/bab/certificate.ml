module Split = Abonn_spec.Split
module Outcome = Abonn_prop.Outcome
module Appver = Abonn_prop.Appver

type leaf = {
  gamma : Split.gamma;
  phat : float;
  by_exact : bool;
}

type t = {
  leaves : leaf list;
  appver_name : string;
}

type check_error =
  | Leaf_not_proved of Split.gamma * float
  | Coverage_gap of Split.gamma
  | Duplicate_or_overlap of Split.gamma
  | Unknown_appver of string

let num_leaves t = List.length t.leaves

let pp_error fmt = function
  | Leaf_not_proved (gamma, phat) ->
    Format.fprintf fmt "leaf %a replays with non-positive bound %g" Split.pp gamma phat
  | Coverage_gap gamma -> Format.fprintf fmt "split space not covered below %a" Split.pp gamma
  | Duplicate_or_overlap gamma ->
    Format.fprintf fmt "overlapping leaves below %a" Split.pp gamma
  | Unknown_appver name -> Format.fprintf fmt "no AppVer is named %S" name

(* The leaves must be exactly the leaf set of a binary split tree: at
   every internal node all leaves agree on the split ReLU and both
   phases occur.  [suffixes] are the remaining split sequences relative
   to the current prefix. *)
let rec check_cover ~prefix suffixes =
  match suffixes with
  | [] -> Error (Coverage_gap prefix)
  | [ [] ] -> Ok ()
  | _ when List.exists (fun s -> s = []) suffixes ->
    (* an interior leaf together with deeper ones: double coverage *)
    Error (Duplicate_or_overlap prefix)
  | _ ->
    let first = function
      | (c : Split.constr) :: _ -> c
      | [] -> assert false
    in
    let relu = (first (List.hd suffixes)).Split.relu in
    if List.exists (fun s -> (first s).Split.relu <> relu) suffixes then
      Error (Duplicate_or_overlap prefix)
    else begin
      let side phase =
        List.filter_map
          (fun s ->
            let c = first s in
            if Split.phase_equal c.Split.phase phase then Some (List.tl s) else None)
          suffixes
      in
      let plus = side Split.Active and minus = side Split.Inactive in
      match
        check_cover ~prefix:(prefix @ [ { Split.relu; phase = Split.Active } ]) plus
      with
      | Error _ as e -> e
      | Ok () ->
        check_cover ~prefix:(prefix @ [ { Split.relu; phase = Split.Inactive } ]) minus
    end

(* Bound every leaf along the search's own chain: walk its split prefix
   from the root with warm starts, each node's state feeding its
   children, so a leaf replays under the parent-tightened bounds it was
   discharged with (DESIGN.md §9).  Prefixes are memoised, so every
   tree node costs one AppVer call. *)
let replayer appver problem =
  let memo = Hashtbl.create 64 in
  let rec walk prefix state rest =
    let key = Split.to_string prefix in
    let outcome, state =
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
        let r = Appver.run_warm appver ?state problem prefix in
        Hashtbl.add memo key r;
        r
    in
    match rest with
    | [] -> outcome
    | c :: rest -> walk (prefix @ [ c ]) state rest
  in
  fun gamma -> walk [] None gamma

let check_under appver problem t =
  let replay = replayer appver problem in
  (* 1. replay every leaf; exact leaves are decided under the replayed
     bounds, as the engine decided them *)
  let rec replay_leaves = function
    | [] -> Ok ()
    | leaf :: rest ->
      let outcome = replay leaf.gamma in
      let ok =
        Outcome.proved outcome
        || leaf.by_exact
           && (match
                 Exact.resolve ~pre_bounds:outcome.Outcome.pre_bounds problem leaf.gamma
               with
               | `Verified -> true
               | `Falsified _ -> false
               | exception Exact.Unresolvable _ -> false)
      in
      if ok then replay_leaves rest
      else Error (Leaf_not_proved (leaf.gamma, outcome.Outcome.phat))
  in
  match replay_leaves t.leaves with
  | Error _ as e -> e
  | Ok () -> check_cover ~prefix:[] (List.map (fun l -> l.gamma) t.leaves)

let check ?appver problem t =
  let named () =
    List.find_opt (fun (v : Appver.t) -> v.name = t.appver_name) Abonn_lp.Lp_verifier.all
  in
  match (match appver with Some _ -> appver | None -> named ()) with
  | Some appver -> check_under appver problem t
  | None -> Error (Unknown_appver t.appver_name)
