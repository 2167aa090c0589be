type t = float

let of_float f =
  if not (Float.is_finite f) then invalid_arg "Fit.of_float: non-finite";
  if f < 0.0 then invalid_arg "Fit.of_float: negative FIT";
  f

let to_failures_per_hour fit = fit *. 1e-9

let of_failures_per_hour rate = of_float (rate /. 1e-9)

let check_pct what pct =
  if not (0.0 <= pct && pct <= 100.0) then
    invalid_arg (Printf.sprintf "Fit.%s: percentage %g outside [0,100]" what pct)

let share fit ~distribution_pct =
  check_pct "share" distribution_pct;
  fit *. distribution_pct /. 100.0

let residual fit ~coverage_pct =
  check_pct "residual" coverage_pct;
  fit *. (1.0 -. (coverage_pct /. 100.0))

let sum = List.fold_left ( +. ) 0.0

let failure_probability fit ~mission_hours =
  if mission_hours < 0.0 then
    invalid_arg "Fit.failure_probability: negative mission time";
  (* -expm1 keeps precision at the FIT scale, where lambda*t is tiny. *)
  -.Float.expm1 (-.(to_failures_per_hour fit) *. mission_hours)

let pp ppf fit = Format.fprintf ppf "%g FIT" fit

let equal = Float.equal
