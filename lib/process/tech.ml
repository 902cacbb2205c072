type t = {
  name : string;
  min_width : Layer.t -> int;
  min_spacing : Layer.t -> int;
  contact_size : int;
  grid : int;
  sheet_resistance : Layer.t -> float;
  short_resistance : Layer.t -> float;
  extra_contact_resistance : float;
  gate_oxide_pinhole_resistance : float;
  junction_pinhole_resistance : float;
  thick_oxide_pinhole_resistance : float;
  shorted_device_resistance : float;
  near_miss_resistance : float;
  near_miss_capacitance : float;
  vdd : float;
  temperature : float;
}

let cmos1um =
  let min_width = function
    | Layer.Nwell -> 2000
    | Layer.Active -> 1000
    | Layer.Poly -> 1000
    | Layer.Contact -> 1000
    | Layer.Metal1 -> 1200
    | Layer.Via -> 1000
    | Layer.Metal2 -> 1400
  in
  let min_spacing = function
    | Layer.Nwell -> 4000
    | Layer.Active -> 1400
    | Layer.Poly -> 1200
    | Layer.Contact -> 1200
    | Layer.Metal1 -> 1400
    | Layer.Via -> 1400
    | Layer.Metal2 -> 1600
  in
  let sheet_resistance = function
    | Layer.Active -> 35.0
    | Layer.Poly -> 25.0
    | Layer.Metal1 -> 0.07
    | Layer.Metal2 -> 0.04
    | Layer.Nwell -> 1500.0
    | Layer.Contact | Layer.Via ->
      invalid_arg "Tech.sheet_resistance: cut layer"
  in
  (* Extra-material bridge resistance depends on the material of the spot
     (paper §3.2: 0.2 Ω metal; polysilicon and diffusion bridges are far
     more resistive). *)
  let short_resistance = function
    | Layer.Metal1 | Layer.Metal2 -> 0.2
    | Layer.Poly -> 50.0
    | Layer.Active -> 100.0
    | Layer.Nwell | Layer.Contact | Layer.Via ->
      invalid_arg "Tech.short_resistance: layer cannot bridge"
  in
  {
    name = "cmos-1um-2M";
    min_width;
    min_spacing;
    contact_size = 1000;
    grid = 100;
    sheet_resistance;
    short_resistance;
    extra_contact_resistance = 2.0;
    gate_oxide_pinhole_resistance = 2_000.0;
    junction_pinhole_resistance = 2_000.0;
    thick_oxide_pinhole_resistance = 2_000.0;
    shorted_device_resistance = 100.0;
    near_miss_resistance = 500.0;
    near_miss_capacitance = 1e-15;
    vdd = 5.0;
    temperature = 27.0;
  }
