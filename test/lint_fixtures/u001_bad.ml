let orphan x = x + 1
