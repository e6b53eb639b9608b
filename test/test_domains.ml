(* Pinned outcomes of the three bound domains.  On seeded random MLPs
   (random biases) and small CNNs, random split sequences are walked
   from the root down to an interval-infeasible node or a fully split
   one, and at every node each entry point's result is rendered with
   [%h] floats: [Interval.run], [Interval.phat], [Zonotope.run],
   [Deeppoly.run], a [Deeppoly.run_warm] chain threading each node's
   state to its child, each domain's [hidden_bounds], and [Exact.resolve]
   on the node's own DeepPoly bounds and on the root's bounds clamped by
   Γ.  One line per network holds a digest per entry point and is
   compared with fixtures/domain_outcomes.txt; a change that moves any
   bound, candidate or infeasibility flag by one bit changes a digest,
   and the test prints the fresh fixture lines. *)

module Rng = Abonn_util.Rng
module Builder = Abonn_nn.Builder
module Split = Abonn_spec.Split
module Problem = Abonn_spec.Problem
module Bounds = Abonn_prop.Bounds
module Outcome = Abonn_prop.Outcome
module Interval = Abonn_prop.Interval
module Zonotope = Abonn_prop.Zonotope
module Deeppoly = Abonn_prop.Deeppoly
module Exact = Abonn_bab.Exact

let fixture = "fixtures/domain_outcomes.txt"

let floats a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a))

let bounds (b : Bounds.t) = floats b.Bounds.lower ^ "/" ^ floats b.Bounds.upper

let bounds_array a = String.concat ";" (Array.to_list (Array.map bounds a))

let outcome (o : Outcome.t) =
  Printf.sprintf "%h|%s|%s|%s|%b" o.Outcome.phat (floats o.Outcome.row_lower)
    (bounds_array o.Outcome.pre_bounds)
    (match o.Outcome.candidate with Some x -> floats x | None -> "-")
    o.Outcome.infeasible

let hidden = function None -> "none" | Some a -> bounds_array a

let exact problem ~pre_bounds gamma =
  match Exact.resolve ~pre_bounds problem gamma with
  | `Verified -> "verified"
  | `Falsified x -> "falsified:" ^ floats x
  | exception Exact.Unresolvable msg -> "unresolvable:" ^ msg

let keys =
  [ "interval"; "interval.phat"; "zonotope"; "deeppoly"; "deeppoly.warm"; "hidden.interval";
    "hidden.zonotope"; "hidden.deeppoly"; "exact" ]

(* Every entry point at one node, in [keys] order. *)
let render_node problem ~root_pre ~state gamma =
  let dp = Deeppoly.run problem gamma in
  let warm, next = Deeppoly.run_warm ?state problem gamma in
  let interval = Interval.run problem gamma in
  let leaf = exact problem ~pre_bounds:dp.Outcome.pre_bounds gamma in
  let rendered =
    [ outcome interval;
      Printf.sprintf "%h" (Interval.phat problem gamma);
      outcome (Zonotope.run problem gamma);
      outcome dp;
      Printf.sprintf "%s|%b" (outcome warm) (Option.is_some next);
      hidden (Interval.hidden_bounds problem gamma);
      hidden (Zonotope.hidden_bounds problem gamma);
      hidden (Deeppoly.hidden_bounds problem gamma);
      leaf ^ "|" ^ exact problem ~pre_bounds:root_pre gamma ]
  in
  let decided = not (String.starts_with ~prefix:"unresolvable" leaf) in
  (rendered, next, interval.Outcome.infeasible, decided)

(* [walks] random split sequences on one network, rendered into one
   fixture line; [leaves] counts the nodes [Exact.resolve] decided on
   their own DeepPoly bounds. *)
let pinned_line rng id problem ~walks =
  let k = Problem.num_relus problem in
  let root_pre = (Deeppoly.run problem []).Outcome.pre_bounds in
  let bufs = List.map (fun _ -> Buffer.create 4096) keys in
  let nodes = ref 0 and leaves = ref 0 in
  let rec walk gamma state depth =
    let rendered, next, infeasible, decided = render_node problem ~root_pre ~state gamma in
    incr nodes;
    if decided then incr leaves;
    List.iter2
      (fun buf s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      bufs rendered;
    if depth < k && not infeasible then begin
      let free =
        List.filter (fun r -> Split.constrained gamma ~relu:r = None) (List.init k Fun.id)
      in
      let relu = List.nth free (Rng.int rng (List.length free)) in
      let phase = if Rng.bool rng then Split.Active else Split.Inactive in
      walk (Split.extend gamma ~relu ~phase) next (depth + 1)
    end
  in
  for _ = 1 to walks do
    walk [] None 0
  done;
  String.concat " "
    ((id :: Printf.sprintf "nodes=%d leaves=%d" !nodes !leaves
      :: List.map2
           (fun key buf -> key ^ "=" ^ Digest.to_hex (Digest.string (Buffer.contents buf)))
           keys bufs))

let mlp_line seed =
  let rng = Rng.create seed in
  let in_dim = 1 + Rng.int rng 3 in
  let depth = 1 + Rng.int rng 4 in
  let width = 2 + Rng.int rng 5 in
  let dims = (in_dim :: List.init depth (fun _ -> width)) @ [ 2 + Rng.int rng 3 ] in
  let affine = Test_backsub.with_random_biases rng (Builder.mlp rng ~dims) in
  let center = Array.init in_dim (fun _ -> Rng.range rng (-0.5) 0.5) in
  let problem = Test_backsub.robustness_problem affine ~center ~eps:(Rng.range rng 0.05 0.8) in
  pinned_line rng (Printf.sprintf "mlp-s%d" seed) problem ~walks:4

let cnn_line seed =
  let rng = Rng.create seed in
  let convs = [ { Builder.out_channels = 2; kernel = 2; stride = 1; padding = 0 } ] in
  let network =
    Builder.convnet rng ~in_channels:1 ~in_h:4 ~in_w:4 ~convs ~dense:[ 4 ] ~num_classes:3
  in
  let affine = Test_backsub.with_random_biases rng network in
  let center = Array.init 16 (fun _ -> Rng.range rng 0.2 0.8) in
  let problem = Test_backsub.robustness_problem affine ~center ~eps:(Rng.range rng 0.05 0.3) in
  pinned_line rng (Printf.sprintf "cnn-s%d" seed) problem ~walks:3

let test_outcomes_pinned () =
  let expected = Test_engines.read_fixture fixture in
  let fresh = List.init 120 mlp_line @ List.init 8 cnn_line in
  let mismatched =
    List.filter
      (fun line ->
        let id = String.sub line 0 (String.index line ' ') in
        List.assoc_opt id expected <> Some line)
      fresh
  in
  List.iter print_endline mismatched;
  Alcotest.(check int) "networks whose outcomes differ from their fixture line (fresh lines above)"
    0 (List.length mismatched)

let suite =
  [ ( "prop.pinned",
      [ Alcotest.test_case "domain outcomes pinned" `Quick test_outcomes_pinned ] ) ]
