type rule = No_refine | Count of int | Fraction of float

let budget rule candidates =
  match rule with
  | No_refine -> 0
  | Count r -> r
  | Fraction f ->
      int_of_float (Float.round (f *. float_of_int (List.length candidates)))

let triangle_score (iv : Interval.t) =
  let a = iv.Interval.lo and b = iv.Interval.hi in
  if a >= 0.0 || b <= 0.0 then 0.0 else -.b *. a /. (b -. a)

let chord_score ~(y : Interval.t) ~(dy : Interval.t) =
  let a = y.Interval.lo and b = y.Interval.hi in
  let c = dy.Interval.lo and d = dy.Interval.hi in
  let inactive = b <= 0.0 && b +. d <= 0.0 in
  let active = a >= 0.0 && a +. c >= 0.0 in
  if inactive || active then 0.0
  else Float.max (Float.abs c) (Float.abs d)

let neuron_score ~y ~dy = Float.max (triangle_score y) (chord_score ~y ~dy)

let select ?(strategy = Search.Strategy.Most_fractional) ?sens
    (bounds : Bounds.t) ~candidates ~r =
  if r <= 0 then []
  else begin
    (* under the dual-guided rule, a neuron whose relaxation rows
       bound earlier solves hard (large accumulated |dual| column
       sensitivity) outranks an equally-inaccurate neuron the solver
       never leaned on; the static score stays the base factor, so
       stable neurons (score 0) are never selected no matter their
       sensitivity *)
    let weight key =
      match (strategy, sens) with
      | Search.Strategy.Dual_guided, Some table -> (
          match Hashtbl.find_opt table key with
          | Some s -> 1.0 +. s
          | None -> 1.0)
      | _ -> 1.0
    in
    let scored =
      List.filter_map
        (fun (i, j) ->
          let s =
            neuron_score ~y:bounds.Bounds.y.(i).(j)
              ~dy:bounds.Bounds.dy.(i).(j)
          in
          if s > 0.0 then Some ((i, j), s *. weight (i, j)) else None)
        candidates
    in
    let sorted =
      List.sort (fun (_, s1) (_, s2) -> compare s2 s1) scored
    in
    List.filteri (fun k _ -> k < r) (List.map fst sorted)
  end
