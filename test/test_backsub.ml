(* Bit-identity of DeepPoly's buffered back-substitution.  [Reference]
   is a copy of the analysis as it was when every target
   allocated its own input-space coefficients ([through_affine] all the
   way down, then [concretize]).  [Deeppoly.run] and [Deeppoly.run_warm]
   must reproduce it to the last bit — p̂, row lower bounds, every
   per-layer bound and the candidate — on random MLPs and a CNN under
   random split sequences. *)

module Rng = Abonn_util.Rng
module Vector = Abonn_tensor.Vector
module Matrix = Abonn_tensor.Matrix
module Builder = Abonn_nn.Builder
module Affine = Abonn_nn.Affine
module Split = Abonn_spec.Split
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Problem = Abonn_spec.Problem
module Bounds = Abonn_prop.Bounds
module Outcome = Abonn_prop.Outcome
module Incremental = Abonn_prop.Incremental
module Deeppoly = Abonn_prop.Deeppoly

module Reference = struct
  (* adaptive slope only: the default AppVer *)
  let lower_slope ~lo ~hi = if hi > -.lo then 1.0 else 0.0

  type sym = {
    mutable lo_coef : float array;
    mutable lo_const : float;
    mutable hi_coef : float array;
    mutable hi_const : float;
  }

  let relax_relu (b : Bounds.t) sym =
    let n = Array.length sym.lo_coef in
    let lo_coef = Array.make n 0.0 and hi_coef = Array.make n 0.0 in
    let lo_const = ref sym.lo_const and hi_const = ref sym.hi_const in
    for j = 0 to n - 1 do
      let lo = b.Bounds.lower.(j) and hi = b.Bounds.upper.(j) in
      let al = sym.lo_coef.(j) and ah = sym.hi_coef.(j) in
      if lo >= 0.0 then begin
        lo_coef.(j) <- al;
        hi_coef.(j) <- ah
      end
      else if hi <= 0.0 then ()
      else begin
        let s = hi /. (hi -. lo) in
        let alpha = lower_slope ~lo ~hi in
        if al >= 0.0 then lo_coef.(j) <- al *. alpha
        else begin
          lo_coef.(j) <- al *. s;
          lo_const := !lo_const -. (al *. s *. lo)
        end;
        if ah >= 0.0 then begin
          hi_coef.(j) <- ah *. s;
          hi_const := !hi_const -. (ah *. s *. lo)
        end
        else hi_coef.(j) <- ah *. alpha
      end
    done;
    sym.lo_coef <- lo_coef;
    sym.hi_coef <- hi_coef;
    sym.lo_const <- !lo_const;
    sym.hi_const <- !hi_const

  let through_affine (w : Matrix.t) (b : float array) sym =
    let dot coef = Abonn_tensor.Vector.dot coef b in
    sym.lo_const <- sym.lo_const +. dot sym.lo_coef;
    sym.hi_const <- sym.hi_const +. dot sym.hi_coef;
    sym.lo_coef <- Matrix.tmv w sym.lo_coef;
    sym.hi_coef <- Matrix.tmv w sym.hi_coef

  let concretize (region : Region.t) sym =
    let lo = ref sym.lo_const and hi = ref sym.hi_const in
    let rl = region.Region.lower and ru = region.Region.upper in
    for j = 0 to Array.length sym.lo_coef - 1 do
      let a = sym.lo_coef.(j) in
      lo := !lo +. (if a > 0.0 then a *. rl.(j) else a *. ru.(j));
      let a = sym.hi_coef.(j) in
      hi := !hi +. (if a > 0.0 then a *. ru.(j) else a *. rl.(j))
    done;
    (!lo, !hi)

  let minimizer_corner (region : Region.t) lo_coef =
    Array.mapi
      (fun j a -> if a > 0.0 then region.Region.lower.(j) else region.Region.upper.(j))
      lo_coef

  (* the allocating back-substitution: one fresh input-width pair of
     coefficient arrays per target *)
  let backsub affine region ~pre_bounds ~start_layer syms =
    for k = start_layer - 1 downto 0 do
      Array.iter (relax_relu pre_bounds.(k)) syms;
      Array.iter (through_affine Affine.(affine.weights.(k)) Affine.(affine.biases.(k))) syms
    done;
    Array.map (concretize region) syms

  let sym_of_row coef const =
    { lo_coef = Array.copy coef; lo_const = const; hi_coef = Array.copy coef; hi_const = const }

  let layer_bounds affine region ~pre_bounds l =
    let w = Affine.(affine.weights.(l)) and b = Affine.(affine.biases.(l)) in
    let syms = Array.init w.Matrix.rows (fun i -> sym_of_row (Matrix.row w i) b.(i)) in
    let pairs = backsub affine region ~pre_bounds ~start_layer:l syms in
    Bounds.create ~lower:(Array.map fst pairs) ~upper:(Array.map snd pairs)

  let splits_for_layer affine gamma l =
    List.filter_map
      (fun (c : Split.constr) ->
        let layer, idx = Affine.relu_position affine c.Split.relu in
        if layer = l then Some (idx, c.Split.phase) else None)
      gamma

  let intersect_parent (b : Bounds.t) (p : Bounds.t) =
    let n = Array.length b.Bounds.lower in
    let lo = Array.make n 0.0 and hi = Array.make n 0.0 in
    for i = 0 to n - 1 do
      lo.(i) <- (if p.Bounds.lower.(i) > b.Bounds.lower.(i) then p.Bounds.lower.(i)
                 else b.Bounds.lower.(i));
      hi.(i) <- (if p.Bounds.upper.(i) < b.Bounds.upper.(i) then p.Bounds.upper.(i)
                 else b.Bounds.upper.(i))
    done;
    Bounds.create ~lower:lo ~upper:hi

  let hidden_bounds ?parent ~from_layer (problem : Problem.t) gamma =
    let affine = problem.Problem.affine in
    let region = problem.Problem.region in
    let n_hidden = Affine.num_layers affine - 1 in
    let from_layer = Stdlib.min from_layer n_hidden in
    let pre_bounds = Array.make n_hidden (Bounds.create ~lower:[||] ~upper:[||]) in
    (match parent with
     | Some (p : Bounds.t array) -> Array.blit p 0 pre_bounds 0 from_layer
     | None -> ());
    let rec loop l lo hi =
      if l >= n_hidden then Ok (pre_bounds, lo, hi)
      else begin
        let zlo, zhi =
          Bounds.affine_image Affine.(affine.weights.(l)) Affine.(affine.biases.(l)) ~lo ~hi
        in
        let b = layer_bounds affine region ~pre_bounds l in
        let b = Bounds.intersect b ~lo:zlo ~hi:zhi in
        let b =
          List.fold_left
            (fun b (idx, phase) -> Bounds.apply_split b ~idx ~phase)
            b (splits_for_layer affine gamma l)
        in
        let b = match parent with Some p -> intersect_parent b p.(l) | None -> b in
        if Bounds.is_infeasible b then Error (Array.sub pre_bounds 0 l)
        else begin
          pre_bounds.(l) <- b;
          loop (l + 1)
            (Array.map (fun v -> Float.max 0.0 v) b.Bounds.lower)
            (Array.map (fun v -> Float.max 0.0 v) b.Bounds.upper)
        end
      end
    in
    if from_layer = 0 then loop 0 (Array.copy region.Region.lower) (Array.copy region.Region.upper)
    else begin
      let b = pre_bounds.(from_layer - 1) in
      loop from_layer
        (Array.map (fun v -> Float.max 0.0 v) b.Bounds.lower)
        (Array.map (fun v -> Float.max 0.0 v) b.Bounds.upper)
    end

  let property_syms (problem : Problem.t) =
    let affine = problem.Problem.affine in
    let prop = problem.Problem.property in
    let last = Affine.num_layers affine - 1 in
    let w = Affine.(affine.weights.(last)) and b = Affine.(affine.biases.(last)) in
    Array.init prop.Property.c.Matrix.rows (fun i ->
        let sym = sym_of_row (Matrix.row prop.Property.c i) prop.Property.d.(i) in
        through_affine w b sym;
        sym)

  let interval_row_lower (problem : Problem.t) ~lo ~hi =
    let affine = problem.Problem.affine in
    let prop = problem.Problem.property in
    let last = Affine.num_layers affine - 1 in
    let ylo, yhi =
      Bounds.affine_image Affine.(affine.weights.(last)) Affine.(affine.biases.(last)) ~lo ~hi
    in
    Array.init prop.Property.c.Matrix.rows (fun i ->
        let acc = ref prop.Property.d.(i) in
        for j = 0 to Array.length ylo - 1 do
          let a = Matrix.get prop.Property.c i j in
          acc := !acc +. (if a > 0.0 then a *. ylo.(j) else a *. yhi.(j))
        done;
        !acc)

  (* [Deeppoly.run_warm]'s analysis for a given reuse decision; [parent]
     absent is [Deeppoly.run] *)
  let analyse ?parent ?(from_layer = 0) (problem : Problem.t) gamma =
    let affine = problem.Problem.affine in
    let region = problem.Problem.region in
    let parent_bounds = Option.map (fun (p : Incremental.t) -> p.Incremental.pre_bounds) parent in
    match hidden_bounds ?parent:parent_bounds ~from_layer problem gamma with
    | Error partial -> Outcome.vacuous ~pre_bounds:partial
    | Ok (pre_bounds, post_lo, post_hi) ->
      let syms = property_syms problem in
      let last = Affine.num_layers affine - 1 in
      let pairs = backsub affine region ~pre_bounds ~start_layer:last syms in
      let ibp_rows = interval_row_lower problem ~lo:post_lo ~hi:post_hi in
      let row_lower = Array.mapi (fun i (lo, _) -> Float.max lo ibp_rows.(i)) pairs in
      (match parent with
       | Some (p : Incremental.t)
         when Array.length p.Incremental.row_lower = Array.length row_lower ->
         Array.iteri
           (fun i v -> if v > row_lower.(i) then row_lower.(i) <- v)
           p.Incremental.row_lower
       | _ -> ());
      let phat = Array.fold_left Float.min infinity row_lower in
      let candidate =
        if phat > 0.0 then None
        else begin
          let worst = ref 0 in
          Array.iteri (fun i v -> if v < row_lower.(!worst) then worst := i) row_lower;
          Some (minimizer_corner region syms.(!worst).lo_coef)
        end
      in
      Outcome.make ~phat ?candidate ~pre_bounds ~row_lower ()

  let analyse_warm ?state problem gamma =
    let reuse =
      match state with
      | Some st -> Incremental.classify st ~appver:"deeppoly" ~problem ~gamma
      | None -> Incremental.Incompatible
    in
    match reuse with
    | Incremental.Prefix l -> analyse ?parent:state ~from_layer:l problem gamma
    | Incremental.Tighten -> analyse ?parent:state problem gamma
    | Incremental.Incompatible -> analyse problem gamma
end

(* --- bitwise comparison --- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_floats a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

let same_outcome (a : Outcome.t) (b : Outcome.t) =
  same_bits a.Outcome.phat b.Outcome.phat
  && same_floats a.Outcome.row_lower b.Outcome.row_lower
  && Bool.equal a.Outcome.infeasible b.Outcome.infeasible
  && Array.length a.Outcome.pre_bounds = Array.length b.Outcome.pre_bounds
  && Array.for_all2
       (fun (x : Bounds.t) (y : Bounds.t) ->
         same_floats x.Bounds.lower y.Bounds.lower && same_floats x.Bounds.upper y.Bounds.upper)
       a.Outcome.pre_bounds b.Outcome.pre_bounds
  && (match a.Outcome.candidate, b.Outcome.candidate with
      | Some x, Some y -> same_floats x y
      | None, None -> true
      | Some _, None | None, Some _ -> false)

(* Walk a random split sequence from the root, threading warm states as
   the engines do; at every node both the cold and the warm analysis
   must equal the reference bit for bit.  Returns the first mismatch. *)
let check_path rng (problem : Problem.t) =
  let k = Problem.num_relus problem in
  let rec walk gamma state depth =
    let cold = Deeppoly.run problem gamma in
    let warm, next = Deeppoly.run_warm ?state problem gamma in
    if not (same_outcome cold (Reference.analyse problem gamma)) then
      Some ("cold", gamma)
    else if not (same_outcome warm (Reference.analyse_warm ?state problem gamma)) then
      Some ("warm", gamma)
    else if depth >= k || warm.Outcome.infeasible then None
    else begin
      let free =
        List.filter (fun r -> Split.constrained gamma ~relu:r = None) (List.init k Fun.id)
      in
      let relu = List.nth free (Rng.int rng (List.length free)) in
      let phase = if Rng.bool rng then Split.Active else Split.Inactive in
      walk (Split.extend gamma ~relu ~phase) next (depth + 1)
    end
  in
  walk [] None 0

(* Builder networks have zero biases, which would hide a reordered bias
   sum: give every layer a random one, keeping the weights. *)
let with_random_biases rng network =
  let a = Affine.of_network network in
  Affine.of_weights
    (List.init (Affine.num_layers a) (fun l ->
         let w = a.Affine.weights.(l) in
         (w, Array.init w.Matrix.rows (fun _ -> Rng.range rng (-0.3) 0.3))))

let robustness_problem affine ~center ~eps =
  let region = Region.linf_ball ~center ~eps () in
  let y = Affine.forward affine center in
  let property =
    Property.robustness ~num_classes:(Array.length y) ~label:(Vector.argmax y)
  in
  Problem.of_affine ~affine ~region ~property ()

let report = function
  | None -> true
  | Some (what, gamma) ->
    QCheck.Test.fail_reportf "%s analysis differs from the reference at %s" what
      (Split.to_string gamma)

let prop_mlp_bit_identical =
  QCheck.Test.make ~name:"buffered backsub is bit-identical on MLPs" ~count:40
    QCheck.(quad (int_range 0 100_000) (int_range 1 4) (int_range 2 6) (int_range 1 3))
    (fun (seed, depth, width, in_dim) ->
      let rng = Rng.create seed in
      let dims = (in_dim :: List.init depth (fun _ -> width)) @ [ 3 ] in
      let affine = with_random_biases rng (Builder.mlp rng ~dims) in
      let center = Array.init in_dim (fun _ -> Rng.range rng (-0.5) 0.5) in
      let problem = robustness_problem affine ~center ~eps:(Rng.range rng 0.05 0.8) in
      (* several split sequences per network *)
      List.for_all (fun _ -> report (check_path rng problem)) [ 1; 2; 3 ])

let prop_cnn_bit_identical =
  QCheck.Test.make ~name:"buffered backsub is bit-identical on a CNN" ~count:10
    (QCheck.int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let convs = [ { Builder.out_channels = 2; kernel = 2; stride = 1; padding = 0 } ] in
      let network =
        Builder.convnet rng ~in_channels:1 ~in_h:4 ~in_w:4 ~convs ~dense:[ 4 ] ~num_classes:3
      in
      let affine = with_random_biases rng network in
      let center = Array.init 16 (fun _ -> Rng.range rng 0.2 0.8) in
      let problem = robustness_problem affine ~center ~eps:0.15 in
      List.for_all (fun _ -> report (check_path rng problem)) [ 1; 2 ])

let suite =
  [ ( "prop.backsub",
      [ QCheck_alcotest.to_alcotest prop_mlp_bit_identical;
        QCheck_alcotest.to_alcotest prop_cnn_bit_identical ] ) ]
