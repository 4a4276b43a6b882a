let own_only x = x * 2
let clean_shared x = own_only x + 1
let unused x = x - 1
