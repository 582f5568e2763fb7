package hypergraph

// KWayConnectivity partitions the hypergraph into k parts by recursive
// bisection under the connectivity-1 objective — PaToH's other metric
// (paper §3.3), which for the column-net model equals the communication
// volume of parallel SpMV. Unlike the cut-net recursion, a net cut by a
// bisection is not discarded: its pins on each side form a restricted net
// in the corresponding subproblem, because every additional part the net
// touches costs one more unit. Within a single bisection the two
// objectives coincide (a cut net spans exactly two parts), so the
// multilevel bisection engine is shared.
func KWayConnectivity(h *Hypergraph, k int, opts Options) ([]int32, int, error) {
	part, err := kway(h, k, opts, true)
	if err != nil {
		return nil, 0, err
	}
	return part, ConnectivityMinusOne(h, part, k), nil
}
