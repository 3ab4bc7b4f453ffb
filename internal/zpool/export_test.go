package zpool

// Managers lists the available pool manager names.
func Managers() []string { return []string{"zsmalloc", "zbud", "z3fold"} }
