exception Singular

let matrix n = Array.make_matrix n n Complex.zero

let solve a b =
  let n = Array.length b in
  if Array.length a <> n || (n > 0 && Array.length a.(0) <> n) then
    invalid_arg "Linear_complex.solve: shape mismatch";
  for k = 0 to n - 1 do
    let pivot_row = ref k in
    let pivot_mag = ref (Complex.norm a.(k).(k)) in
    for i = k + 1 to n - 1 do
      let mag = Complex.norm a.(i).(k) in
      if mag > !pivot_mag then begin
        pivot_mag := mag;
        pivot_row := i
      end
    done;
    if !pivot_mag < 1e-300 then raise Singular;
    if !pivot_row <> k then begin
      let tmp = a.(k) in
      a.(k) <- a.(!pivot_row);
      a.(!pivot_row) <- tmp;
      let tb = b.(k) in
      b.(k) <- b.(!pivot_row);
      b.(!pivot_row) <- tb
    end;
    let akk = a.(k).(k) in
    for i = k + 1 to n - 1 do
      if a.(i).(k) <> Complex.zero then begin
        let factor = Complex.div a.(i).(k) akk in
        a.(i).(k) <- factor;
        for j = k + 1 to n - 1 do
          a.(i).(j) <- Complex.sub a.(i).(j) (Complex.mul factor a.(k).(j))
        done;
        b.(i) <- Complex.sub b.(i) (Complex.mul factor b.(k))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let sum = ref b.(i) in
    for j = i + 1 to n - 1 do
      sum := Complex.sub !sum (Complex.mul a.(i).(j) b.(j))
    done;
    b.(i) <- Complex.div !sum a.(i).(i)
  done;
  b
