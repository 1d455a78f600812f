let by_path x = x * 2
let by_open x = x * 3
let by_alias x = x * 4
let by_functor x = x * 5
