let levels net =
  Sta.forward
    (module struct
      type t = int

      let input _ = 0
      let start l = Stdlib.max 0 l
      let join = Stdlib.max
      let gate _ l = l + 1
    end)
    net

let depth net = Array.fold_left Stdlib.max 0 (levels net)
