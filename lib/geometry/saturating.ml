let mul a b =
  if a < 0x4000_0000 && b < 0x4000_0000 then a * b (* < 2^60, no division *)
  else if a = 0 || b = 0 then 0
  else if a > max_int / b then max_int
  else a * b

let add a b = if a > max_int - b then max_int else a + b
let ceil_div a b = if a <= 0 then 0 else ((a - 1) / b) + 1
