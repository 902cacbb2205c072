exception Singular

let matrix n = Array.make_matrix n n 0.0

(* --- LU kernels -------------------------------------------------------- *)

(* Relative singularity test. A pivot is only "zero" relative to the
   magnitude of the matrix it came from: MNA systems legitimately mix
   fA-capacitor stamps with mho-scale short conductances, and an absolute
   threshold (the historical 1e-300) spuriously rejects well-conditioned
   but badly-scaled systems. 1e-30 is far below any double-precision
   rank-revealing bound (eps ~ 2e-16), so only genuinely rank-deficient
   eliminations trip it; gmin-conditioned systems with condition numbers
   around 1e12-1e16 still pass. *)
let relative_pivot_floor = 1e-30

let matrix_scale a =
  let n = Array.length a in
  let scale = ref 0.0 in
  for i = 0 to n - 1 do
    let row = a.(i) in
    for j = 0 to n - 1 do
      let m = Float.abs (Array.unsafe_get row j) in
      if m > !scale then scale := m
    done
  done;
  !scale

(* Dense LU with partial pivoting, in place: on return [a] holds the
   multipliers below the diagonal and U on and above it, and [piv.(k)] is
   the row swapped into position k at step k. The arithmetic (operation
   order included) is exactly the historical fused eliminate-and-solve
   loop with the right-hand-side work split out, so [solve] results are
   bit-identical to the pre-factorization implementation. *)
let factor_in_place a piv =
  let n = Array.length a in
  let threshold = relative_pivot_floor *. matrix_scale a in
  for k = 0 to n - 1 do
    let pivot_row = ref k in
    let pivot_mag = ref (Float.abs a.(k).(k)) in
    for i = k + 1 to n - 1 do
      let mag = Float.abs a.(i).(k) in
      if mag > !pivot_mag then begin
        pivot_mag := mag;
        pivot_row := i
      end
    done;
    (* [not (> threshold)] also rejects NaN pivots. *)
    if not (!pivot_mag > threshold) then raise Singular;
    piv.(k) <- !pivot_row;
    if !pivot_row <> k then begin
      let tmp = a.(k) in
      a.(k) <- a.(!pivot_row);
      a.(!pivot_row) <- tmp
    end;
    let row_k = a.(k) in
    let akk = row_k.(k) in
    for i = k + 1 to n - 1 do
      let row_i = a.(i) in
      let factor = Array.unsafe_get row_i k /. akk in
      Array.unsafe_set row_i k factor;
      if factor <> 0. then
        for j = k + 1 to n - 1 do
          Array.unsafe_set row_i j
            (Array.unsafe_get row_i j -. (factor *. Array.unsafe_get row_k j))
        done
    done
  done

(* Substitution against factors produced by [factor_in_place]. Pivot
   swaps exchanged full rows (stored multipliers included), so all swaps
   are applied to [b] first and the forward pass then runs over clean
   triangular factors — for each element this subtracts the same
   multiplier·value products in the same column order as the historical
   fused eliminate-and-solve loop, so results are bit-identical to it. *)
let substitute_in_place a piv b =
  let n = Array.length b in
  for k = 0 to n - 1 do
    if piv.(k) <> k then begin
      let t = b.(k) in
      b.(k) <- b.(piv.(k));
      b.(piv.(k)) <- t
    end
  done;
  for k = 0 to n - 1 do
    let bk = Array.unsafe_get b k in
    for i = k + 1 to n - 1 do
      let l = Array.unsafe_get (Array.unsafe_get a i) k in
      if l <> 0. then
        Array.unsafe_set b i (Array.unsafe_get b i -. (l *. bk))
    done
  done;
  for i = n - 1 downto 0 do
    let row = a.(i) in
    let sum = ref (Array.unsafe_get b i) in
    for j = i + 1 to n - 1 do
      sum := !sum -. (Array.unsafe_get row j *. Array.unsafe_get b j)
    done;
    Array.unsafe_set b i (!sum /. Array.unsafe_get row i)
  done

let solve a b =
  let n = Array.length b in
  if Array.length a <> n || (n > 0 && Array.length a.(0) <> n) then
    invalid_arg "Linear.solve: shape mismatch";
  let piv = Array.make n 0 in
  factor_in_place a piv;
  substitute_in_place a piv b;
  b

(* --- sparsity patterns --------------------------------------------------- *)

(* Sort [a.(lo) .. a.(hi - 1)] ascending by insertion (a row holds a
   handful of columns), move its distinct values to the front and return
   how many there are. *)
let uniq_segment (a : int array) lo hi =
  for j = lo + 1 to hi - 1 do
    let v = a.(j) in
    let i = ref j in
    while !i > lo && a.(!i - 1) > v do
      a.(!i) <- a.(!i - 1);
      decr i
    done;
    a.(!i) <- v
  done;
  let k = ref lo in
  for j = lo to hi - 1 do
    if j = lo || a.(j) <> a.(!k - 1) then begin
      a.(!k) <- a.(j);
      incr k
    end
  done;
  !k - lo

module Pattern = struct
  type t = { n : int; row_ptr : int array; col : int array }

  let nnz p = Array.length p.col

  (* Per-domain scratch for [of_positions]: the positions as they
     arrive, then their columns bucketed by row. It only grows, so
     building a pattern allocates nothing but the pattern. *)
  type scratch = {
    mutable rows : int array;
    mutable cols : int array;
    mutable bucket : int array;
    mutable start : int array;
  }

  let scratch_key =
    Domain.DLS.new_key (fun () ->
        { rows = [||]; cols = [||]; bucket = [||]; start = [||] })

  let of_positions ~n iter =
    let s = Domain.DLS.get scratch_key in
    let m = ref 0 in
    iter (fun r c ->
        if r < 0 || r >= n || c < 0 || c >= n then
          invalid_arg "Linear.Pattern.of_positions: position out of range";
        if !m = Array.length s.rows then begin
          let grow a =
            let b = Array.make (max 64 (2 * !m)) 0 in
            Array.blit a 0 b 0 !m;
            b
          in
          s.rows <- grow s.rows;
          s.cols <- grow s.cols
        end;
        s.rows.(!m) <- r;
        s.cols.(!m) <- c;
        incr m);
    let m = !m in
    if Array.length s.bucket < m then
      s.bucket <- Array.make (Array.length s.rows) 0;
    if Array.length s.start < n + 1 then s.start <- Array.make (n + 1) 0;
    let rows = s.rows and cols = s.cols in
    let bucket = s.bucket and start = s.start in
    (* Counting sort by row: afterwards row r's columns fill
       [bucket.(start.(r - 1)) .. bucket.(start.(r) - 1)]. *)
    Array.fill start 0 (n + 1) 0;
    for i = 0 to m - 1 do
      start.(rows.(i) + 1) <- start.(rows.(i) + 1) + 1
    done;
    for r = 1 to n do
      start.(r) <- start.(r) + start.(r - 1)
    done;
    for i = 0 to m - 1 do
      let r = rows.(i) in
      bucket.(start.(r)) <- cols.(i);
      start.(r) <- start.(r) + 1
    done;
    (* Each row's distinct columns, ascending, at the row's front. *)
    let row_ptr = Array.make (n + 1) 0 in
    for r = 0 to n - 1 do
      let lo = if r = 0 then 0 else start.(r - 1) in
      row_ptr.(r + 1) <- row_ptr.(r) + uniq_segment bucket lo start.(r)
    done;
    let col = Array.make row_ptr.(n) 0 in
    for r = 0 to n - 1 do
      let lo = if r = 0 then 0 else start.(r - 1) in
      Array.blit bucket lo col row_ptr.(r) (row_ptr.(r + 1) - row_ptr.(r))
    done;
    { n; row_ptr; col }

  let of_dense a =
    let n = Array.length a in
    let row_ptr = Array.make (n + 1) 0 in
    let col = Array.make (n * n) 0 and value = Array.make (n * n) 0.0 in
    let nnz = ref 0 in
    for i = 0 to n - 1 do
      let row = a.(i) in
      if Array.length row <> n then
        invalid_arg "Linear.Pattern.of_dense: square matrix expected";
      for j = 0 to n - 1 do
        let x = row.(j) in
        if x <> 0.0 then begin
          col.(!nnz) <- j;
          value.(!nnz) <- x;
          incr nnz
        end
      done;
      row_ptr.(i + 1) <- !nnz
    done;
    { n; row_ptr; col = Array.sub col 0 !nnz }, Array.sub value 0 !nnz

  (* Rows hold their columns in ascending order. *)
  let slot p r c =
    let rec scan e =
      if e >= p.row_ptr.(r + 1) || p.col.(e) > c then -1
      else if p.col.(e) = c then e
      else scan (e + 1)
    in
    scan p.row_ptr.(r)

  let extend p iter =
    let grows = ref false in
    iter (fun r c ->
        if r < 0 || r >= p.n || c < 0 || c >= p.n then
          invalid_arg "Linear.Pattern.extend: position out of range";
        if slot p r c < 0 then grows := true);
    if not !grows then None
    else begin
      let each_old f =
        for r = 0 to p.n - 1 do
          for e = p.row_ptr.(r) to p.row_ptr.(r + 1) - 1 do
            f e r p.col.(e)
          done
        done
      in
      let q = of_positions ~n:p.n (fun add -> each_old (fun _ -> add); iter add) in
      let remap = Array.make (nnz p) 0 in
      each_old (fun e r c -> remap.(e) <- slot q r c);
      Some (q, remap)
    end

  let positions p =
    let a = Array.make (nnz p) (0, 0) in
    for r = 0 to p.n - 1 do
      for e = p.row_ptr.(r) to p.row_ptr.(r + 1) - 1 do
        a.(e) <- r, p.col.(e)
      done
    done;
    a
end

(* --- sparse LU ---------------------------------------------------------- *)

(* Right-looking elimination over a pattern, repeating [factor_in_place]
   exactly on the stored entries: the same pivots (largest magnitude,
   lowest position on ties), the same multipliers, and every entry's
   updates in ascending step order, with fill-in created as 0 - l·u as
   the dense kernel computes it. The only operations skipped are those
   against a structural zero, which add or subtract an exact zero and so
   can change at most the sign of an entry that is itself zero.

   Fill-in lives in a per-domain workspace: the active entries of every
   original row, the rows holding each column, the row permutation and
   the buffers L and U are collected in. Rows and column lists sit in
   flat arrays at a fixed stride; one that outgrows it restarts the call
   at twice the stride (never past n, where nothing can outgrow it), so
   once warm a factorization allocates nothing but its own result. *)
type workspace = {
  mutable cap : int;         (* rows and columns the arrays hold *)
  mutable stride : int;      (* room per row and per column list *)
  mutable rcol : int array;  (* row r's active columns from r·stride *)
  mutable rval : float array;
  mutable rlen : int array;
  mutable crow : int array;  (* rows holding column c, from c·stride *)
  mutable clen : int array;
  mutable pos : int array;   (* position of each original row *)
  mutable at : int array;    (* original row at each position *)
  mutable mark : int array;  (* per column: stamp of the last scatter *)
  mutable slot : int array;  (* per column: its index in that row *)
  mutable cand : int array;  (* rows holding the pivot column... *)
  mutable cand_slot : int array;  (* ...and the index of that entry *)
  mutable stamp : int;
  mutable lrow : int array;  (* L by step; at most one per column entry *)
  mutable lval : float array;
  mutable ucol : int array;  (* U by row; at most one per row entry *)
  mutable uval : float array;
}

exception Outgrown

let workspace_key =
  Domain.DLS.new_key (fun () ->
      {
        cap = 0; stride = 0; rcol = [||]; rval = [||]; rlen = [||];
        crow = [||]; clen = [||]; pos = [||]; at = [||]; mark = [||];
        slot = [||]; cand = [||]; cand_slot = [||]; stamp = 0; lrow = [||];
        lval = [||]; ucol = [||]; uval = [||];
      })

let resize w ~cap ~stride =
  let size = cap * stride in
  w.cap <- cap;
  w.stride <- stride;
  w.rcol <- Array.make size 0;
  w.rval <- Array.make size 0.0;
  w.rlen <- Array.make cap 0;
  w.crow <- Array.make size 0;
  w.clen <- Array.make cap 0;
  w.pos <- Array.make cap 0;
  w.at <- Array.make cap 0;
  w.mark <- Array.make cap 0;
  w.slot <- Array.make cap 0;
  w.cand <- Array.make cap 0;
  w.cand_slot <- Array.make cap 0;
  w.stamp <- 0;
  w.lrow <- Array.make size 0;
  w.lval <- Array.make size 0.0;
  w.ucol <- Array.make size 0;
  w.uval <- Array.make size 0.0

type sparse_lu = {
  prow : int array;     (* original row at each final position *)
  l_ptr : int array;    (* L by step: multipliers below the pivot *)
  l_pos : int array;    (* final position of each multiplier's row *)
  l_val : float array;
  u_ptr : int array;    (* U by row, off-diagonal, ascending column *)
  u_col : int array;
  u_val : float array;
  u_diag : float array;
}

let eliminate w (p : Pattern.t) a =
  let n = p.Pattern.n and stride = w.stride in
  let row_ptr = p.Pattern.row_ptr and pcol = p.Pattern.col in
  let rcol = w.rcol and rval = w.rval and rlen = w.rlen in
  let crow = w.crow and clen = w.clen in
  let pos = w.pos and at = w.at and mark = w.mark and slot = w.slot in
  let cand = w.cand and cand_slot = w.cand_slot in
  let lrow = w.lrow and lval = w.lval and ucol = w.ucol and uval = w.uval in
  (* Indices below hold by construction, so the loops read unchecked: a
     pattern's columns lie in [0, n) and [a] holds one value per slot
     (both checked where they are built), the workspace holds [cap >= n]
     rows of [stride <= cap] entries, and every row or column list that
     would pass its stride raises [Outgrown] before it is written. *)
  let scale = ref 0.0 in
  for e = 0 to Array.length a - 1 do
    let m = Float.abs (Array.unsafe_get a e) in
    if m > !scale then scale := m
  done;
  let threshold = relative_pivot_floor *. !scale in
  Array.fill clen 0 n 0;
  for r = 0 to n - 1 do
    let start = Array.unsafe_get row_ptr r in
    let stop = Array.unsafe_get row_ptr (r + 1) in
    if stop - start > stride then raise Outgrown;
    let base = (r * stride) - start in
    for e = start to stop - 1 do
      let c = Array.unsafe_get pcol e in
      Array.unsafe_set rcol (base + e) c;
      Array.unsafe_set rval (base + e) (Array.unsafe_get a e);
      let cl = Array.unsafe_get clen c in
      if cl = stride then raise Outgrown;
      Array.unsafe_set crow ((c * stride) + cl) r;
      Array.unsafe_set clen c (cl + 1)
    done;
    Array.unsafe_set rlen r (stop - start);
    Array.unsafe_set pos r r;
    Array.unsafe_set at r r
  done;
  let l_ptr = Array.make (n + 1) 0 and u_ptr = Array.make (n + 1) 0 in
  let u_diag = Array.make n 0.0 in
  let nl = ref 0 and nu = ref 0 in
  for k = 0 to n - 1 do
    (* Candidates: active rows holding column k. The row at position k
       starts as the pivot with magnitude 0 when it lacks column k, as in
       the dense scan; a candidate wins on a larger magnitude, or on an
       equal one at a lower position. *)
    let nc = ref 0 in
    let best = ref (-1) and best_pos = ref k and best_mag = ref 0.0 in
    let cbase = k * stride in
    for t = cbase to cbase + Array.unsafe_get clen k - 1 do
      let r = Array.unsafe_get crow t in
      let pr = Array.unsafe_get pos r in
      if pr >= k then begin
        (* An active row keeps column k until step k removes it. *)
        let s = ref (r * stride) in
        while Array.unsafe_get rcol !s <> k do incr s done;
        Array.unsafe_set cand !nc r;
        Array.unsafe_set cand_slot !nc !s;
        let mag = Float.abs (Array.unsafe_get rval !s) in
        if mag > !best_mag || (mag = !best_mag && pr < !best_pos) then begin
          best := !nc;
          best_pos := pr;
          best_mag := mag
        end;
        incr nc
      end
    done;
    if not (!best_mag > threshold) then raise Singular;
    let rp = Array.unsafe_get cand !best in
    let sp = Array.unsafe_get cand_slot !best in
    let displaced = Array.unsafe_get at k in
    Array.unsafe_set at !best_pos displaced;
    Array.unsafe_set pos displaced !best_pos;
    Array.unsafe_set at k rp;
    Array.unsafe_set pos rp k;
    (* The pivot row is U's row k; its off-diagonal entries go out in
       ascending column order, the order back substitution sums them in. *)
    let akk = Array.unsafe_get rval sp in
    Array.unsafe_set u_diag k akk;
    let u0 = !nu in
    Array.unsafe_set u_ptr k u0;
    let pbase = rp * stride in
    for s = pbase to pbase + Array.unsafe_get rlen rp - 1 do
      if s <> sp then begin
        let c = Array.unsafe_get rcol s and v = Array.unsafe_get rval s in
        let i = ref !nu in
        while !i > u0 && Array.unsafe_get ucol (!i - 1) > c do
          Array.unsafe_set ucol !i (Array.unsafe_get ucol (!i - 1));
          Array.unsafe_set uval !i (Array.unsafe_get uval (!i - 1));
          decr i
        done;
        Array.unsafe_set ucol !i c;
        Array.unsafe_set uval !i v;
        incr nu
      end
    done;
    let u1 = !nu in
    Array.unsafe_set l_ptr k !nl;
    for t = 0 to !nc - 1 do
      let i = Array.unsafe_get cand t in
      if i <> rp then begin
        let s = Array.unsafe_get cand_slot t in
        let base = i * stride in
        let l = Array.unsafe_get rval s /. akk in
        (* Column k leaves the active row: it is L's now. *)
        let len = ref (Array.unsafe_get rlen i - 1) in
        Array.unsafe_set rcol s (Array.unsafe_get rcol (base + !len));
        Array.unsafe_set rval s (Array.unsafe_get rval (base + !len));
        if l <> 0. then begin
          Array.unsafe_set lrow !nl i;
          Array.unsafe_set lval !nl l;
          incr nl;
          w.stamp <- w.stamp + 1;
          let stamp = w.stamp in
          for e = base to base + !len - 1 do
            let c = Array.unsafe_get rcol e in
            Array.unsafe_set mark c stamp;
            Array.unsafe_set slot c e
          done;
          for e = u0 to u1 - 1 do
            let j = Array.unsafe_get ucol e in
            let lu = l *. Array.unsafe_get uval e in
            if Array.unsafe_get mark j = stamp then begin
              let q = Array.unsafe_get slot j in
              Array.unsafe_set rval q (Array.unsafe_get rval q -. lu)
            end
            else begin
              if !len = stride then raise Outgrown;
              Array.unsafe_set rcol (base + !len) j;
              Array.unsafe_set rval (base + !len) (0.0 -. lu);
              incr len;
              let cl = Array.unsafe_get clen j in
              if cl = stride then raise Outgrown;
              Array.unsafe_set crow ((j * stride) + cl) i;
              Array.unsafe_set clen j (cl + 1)
            end
          done
        end;
        Array.unsafe_set rlen i !len
      end
    done
  done;
  l_ptr.(n) <- !nl;
  u_ptr.(n) <- !nu;
  let l_pos = Array.make !nl 0 in
  for e = 0 to !nl - 1 do
    Array.unsafe_set l_pos e (Array.unsafe_get pos (Array.unsafe_get lrow e))
  done;
  {
    prow = Array.sub at 0 n;
    l_ptr;
    l_pos;
    l_val = Array.sub lval 0 !nl;
    u_ptr;
    u_col = Array.sub ucol 0 !nu;
    u_val = Array.sub uval 0 !nu;
    u_diag;
  }

let factor_sparse (p : Pattern.t) a =
  let n = p.Pattern.n in
  let w = Domain.DLS.get workspace_key in
  if w.cap < n then resize w ~cap:n ~stride:(min n (max 16 w.stride));
  let rec attempt () =
    match eliminate w p a with
    | lu -> lu
    | exception Outgrown ->
      resize w ~cap:w.cap ~stride:(min w.cap (2 * w.stride));
      attempt ()
  in
  attempt ()

(* Substitution against [factor_sparse]'s factors, in position order:
   each element receives the multiplier·value products of the dense
   forward pass in the same (ascending step) order, and each U row is
   summed in ascending column order, as [substitute_in_place] does. The
   caller passes [y] of the factor's size; every stored position and
   column is below it, so the loops read unchecked. *)
let substitute_sparse lu y =
  let n = Array.length y in
  let l_ptr = lu.l_ptr and l_pos = lu.l_pos and l_val = lu.l_val in
  let u_ptr = lu.u_ptr and u_col = lu.u_col and u_val = lu.u_val in
  let u_diag = lu.u_diag in
  for k = 0 to n - 1 do
    let bk = Array.unsafe_get y k in
    for e = Array.unsafe_get l_ptr k to Array.unsafe_get l_ptr (k + 1) - 1 do
      let i = Array.unsafe_get l_pos e in
      Array.unsafe_set y i
        (Array.unsafe_get y i -. (Array.unsafe_get l_val e *. bk))
    done
  done;
  for i = n - 1 downto 0 do
    let sum = ref (Array.unsafe_get y i) in
    for e = Array.unsafe_get u_ptr i to Array.unsafe_get u_ptr (i + 1) - 1 do
      sum :=
        !sum
        -. (Array.unsafe_get u_val e
           *. Array.unsafe_get y (Array.unsafe_get u_col e))
    done;
    Array.unsafe_set y i (!sum /. Array.unsafe_get u_diag i)
  done

(* --- persistent factorizations ----------------------------------------- *)

module Factor = struct
  (* One Sherman-Morrison term: solving through the update costs a dot
     product over v's nonzeros and an axpy on top of the base
     substitution. [w] is the base (plus earlier updates) solve of c*u;
     [denom] = 1 + v.w. *)
  type update = {
    w : float array;
    vi : int array;  (* v's nonzeros: indices, ascending... *)
    vv : float array;  (* ...and values *)
    denom : float;
  }

  type t = { n : int; lu : sparse_lu; ups : update list }

  let size t = t.n
  let updates t = List.length t.ups

  let factor_pattern (p : Pattern.t) a =
    if Array.length a <> Pattern.nnz p then
      invalid_arg "Linear.Factor.factor_pattern: value count mismatch";
    { n = p.Pattern.n; lu = factor_sparse p a; ups = [] }

  let factor a =
    let p, values = Pattern.of_dense a in
    factor_pattern p values

  (* v·y over v's nonzeros, in ascending index: the terms a full dot
     product adds on top are exact zeros, which leave a sum that starts
     at +0 unchanged. *)
  let[@inline] dot vi vv y =
    let s = ref 0.0 in
    for t = 0 to Array.length vi - 1 do
      s :=
        !s
        +. (Array.unsafe_get vv t *. Array.unsafe_get y (Array.unsafe_get vi t))
    done;
    !s

  (* The update chain, oldest first, on a base solve already in [y]. *)
  let rec apply_updates n ups y =
    match ups with
    | [] -> ()
    | { w; vi; vv; denom } :: rest ->
      let s = dot vi vv y /. denom in
      if s <> 0.0 then
        for i = 0 to n - 1 do
          Array.unsafe_set y i
            (Array.unsafe_get y i -. (s *. Array.unsafe_get w i))
        done;
      apply_updates n rest y

  let solve_into t b ~into:y =
    let n = t.n in
    if Array.length b <> n || Array.length y <> n then
      invalid_arg "Linear.Factor.solve_into: shape mismatch";
    if b == y then invalid_arg "Linear.Factor.solve_into: b and into alias";
    let prow = t.lu.prow in
    for i = 0 to n - 1 do
      Array.unsafe_set y i (Array.unsafe_get b (Array.unsafe_get prow i))
    done;
    substitute_sparse t.lu y;
    apply_updates n t.ups y

  let solve_factored t b =
    if Array.length b <> t.n then
      invalid_arg "Linear.Factor.solve_factored: shape mismatch";
    let y = Array.make t.n 0.0 in
    solve_into t b ~into:y;
    y

  (* Sherman-Morrison denominators near zero mean the update drives the
     matrix toward singularity; the guard is relative to the magnitude of
     the correction term so it is a pure function of the numbers. *)
  let denominator_guard = 1e-8

  let rank1_update t ~c ~u ~v =
    let n = t.n in
    if Array.length u <> n || Array.length v <> n then
      invalid_arg "Linear.Factor.rank1_update: shape mismatch";
    if c = 0.0 then Some t
    else begin
      let cu = Array.make n 0.0 in
      for i = 0 to n - 1 do
        Array.unsafe_set cu i (c *. Array.unsafe_get u i)
      done;
      let w = Array.make n 0.0 in
      solve_into t cu ~into:w;
      let nnz = ref 0 in
      for i = 0 to n - 1 do
        if Array.unsafe_get v i <> 0.0 then incr nnz
      done;
      let vi = Array.make !nnz 0 and vv = Array.make !nnz 0.0 in
      let k = ref 0 in
      for i = 0 to n - 1 do
        let x = Array.unsafe_get v i in
        if x <> 0.0 then begin
          Array.unsafe_set vi !k i;
          Array.unsafe_set vv !k x;
          incr k
        end
      done;
      let s = dot vi vv w in
      let denom = 1.0 +. s in
      if (not (Float.is_finite denom))
         || Float.abs denom <= denominator_guard *. (1.0 +. Float.abs s)
      then None
      else Some { t with ups = t.ups @ [ { w; vi; vv; denom } ] }
    end
end

let residual a x b =
  let n = Array.length b in
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    let sum = ref 0.0 in
    for j = 0 to n - 1 do
      sum := !sum +. (a.(i).(j) *. x.(j))
    done;
    worst := Float.max !worst (Float.abs (!sum -. b.(i)))
  done;
  !worst
