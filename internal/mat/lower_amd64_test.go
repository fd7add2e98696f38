package mat

// fmaNote says whether this amd64 processor has FMA3, which every m-m form
// needs in hardware to run at speed.
func fmaNote() string {
	if hasFMA3 {
		return "FMA3 on this host: the Go tile's math.FMA and the vector tiles run it in hardware"
	}
	return "no FMA3 on this host: no vector tiles, and the Go tile's math.FMA runs in software (same bits, slower)"
}
