package dispatch

func Pick(sys string) int {
	switch sys { // enginedispatch
	case "Spark":
		return 1
	case "Myria":
		return 2
	}
	return 0
}
