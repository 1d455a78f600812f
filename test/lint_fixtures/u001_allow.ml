let kept () = 42
