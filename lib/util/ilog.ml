let ceil_log2 n =
  let rec go w = if 1 lsl w >= n then w else go (w + 1) in
  go 0
