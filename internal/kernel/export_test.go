package kernel

// ActiveFlows returns the maintained count of active flows and a
// recount of the flow mirror's entries opened by connect().
func (k *Kernel) ActiveFlows() (counted, recount int) {
	for _, e := range k.flowHome {
		if e.active {
			recount++
		}
	}
	return k.activeFlows, recount
}
