type sample = {
  vth_n_shift : float;
  vth_p_shift : float;
  beta_factor : float;
  resistance_factor : float;
  capacitance_factor : float;
  vdd : float;
  temperature : float;
}

let nominal (tech : Tech.t) =
  {
    vth_n_shift = 0.;
    vth_p_shift = 0.;
    beta_factor = 1.;
    resistance_factor = 1.;
    capacitance_factor = 1.;
    vdd = tech.Tech.vdd;
    temperature = tech.Tech.temperature;
  }

type spread = {
  vth_sigma : float;
  beta_sigma : float;
  resistance_sigma : float;
  capacitance_sigma : float;
  vdd_tolerance : float;
  temperature_range : float * float;
}

let default_spread =
  {
    vth_sigma = 0.015;
    beta_sigma = 0.04;
    resistance_sigma = 0.08;
    capacitance_sigma = 0.05;
    vdd_tolerance = 0.25;
    temperature_range = 0., 70.;
  }

let draw spread (tech : Tech.t) prng =
  let open Util in
  let gauss sigma = Distribution.normal prng ~mean:0.0 ~sigma in
  let factor sigma =
    Distribution.truncated_normal prng ~mean:1.0 ~sigma ~lo:0.5 ~hi:1.5
  in
  let t_lo, t_hi = spread.temperature_range in
  {
    vth_n_shift = gauss spread.vth_sigma;
    vth_p_shift = gauss spread.vth_sigma;
    beta_factor = factor spread.beta_sigma;
    resistance_factor = factor spread.resistance_sigma;
    capacitance_factor = factor spread.capacitance_sigma;
    vdd =
      Prng.uniform prng ~lo:(tech.Tech.vdd -. spread.vdd_tolerance)
        ~hi:(tech.Tech.vdd +. spread.vdd_tolerance);
    temperature = Prng.uniform prng ~lo:t_lo ~hi:t_hi;
  }

let monte_carlo ?(n = 64) spread tech prng =
  if n < 1 then invalid_arg "Variation.monte_carlo: n must be >= 1";
  nominal tech :: List.init (n - 1) (fun _ -> draw spread tech prng)

let pp ppf s =
  Format.fprintf ppf
    "{dVthN=%.3f dVthP=%.3f beta=%.2f R=%.2f C=%.2f Vdd=%.2f T=%.0f}"
    s.vth_n_shift s.vth_p_shift s.beta_factor s.resistance_factor
    s.capacitance_factor s.vdd s.temperature
