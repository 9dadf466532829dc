package workloads

// Planted split bugs, for the crash explorer's planted-bug test.
const (
	SplitPublishBeforeRelink = splitPublishBeforeRelink
	SplitMovedCRCLater       = splitMovedCRCLater
)

// PlantSplitBug makes every store split with bug until the returned func
// restores correct splits. Not safe while another goroutine mutates a
// store.
func PlantSplitBug(bug int) (restore func()) {
	splitBug = bug
	return func() { splitBug = splitCorrect }
}
