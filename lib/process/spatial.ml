type position = { x : float; y : float }

let position ~x ~y = { x; y }

let distance a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))

let row_positions ~n ~pitch =
  if n <= 0 then invalid_arg "Spatial.row_positions: n <= 0";
  Array.init n (fun i -> { x = float_of_int i *. pitch; y = 0.0 })

let correlation (tech : Tech.t) a b =
  exp (-.distance a b /. tech.corr_length)

let correlation_matrix tech positions =
  let n = Array.length positions in
  Spv_stats.Correlation.of_function ~n (fun i j ->
      correlation tech positions.(i) positions.(j))

let field_factor tech positions =
  Spv_stats.Matrix.cholesky_psd (correlation_matrix tech positions)
