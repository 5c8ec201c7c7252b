(* QCheck generators shared by the property tests.

   QCheck's [int_range a b] shrinks a failing value toward 0, below [a]
   when [a > 0]: a size drawn from [1, n] shrinks to 0, and the shrunk
   case then fails for that reason ([Rng.int]'s "non-positive bound",
   say) instead of the property's, hiding the real counterexample.
   [int_range] here draws the same values and shrinks toward [a], so
   every candidate stays in [a, b]. *)

let int_range a b =
  QCheck.set_shrink
    (fun x yield -> QCheck.Shrink.int (x - a) (fun d -> yield (a + d)))
    (QCheck.int_range a b)
