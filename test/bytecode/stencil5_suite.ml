let () =
  Alcotest.run "stencil5"
    (List.filter (fun (name, _) -> String.equal name "numerics.stencil5") Test_numerics.suite)
