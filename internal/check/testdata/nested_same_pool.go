// Go has no thread-local journal, so a transaction is joined by passing j,
// never by calling Transaction again: a Transaction on the same pool tag
// inside a transaction body is a second, independent transaction on its
// own journal slot, committing on its own.
package testdata

import "corundum/internal/core"

type P7 struct{}
type Q7 struct{}

func bump(j *core.Journal[P7], c core.PCell[int64, P7]) error {
	return c.Set(j, c.Get()+1)
}

func nestedSamePool(c core.PCell[int64, P7]) {
	_ = core.Transaction[P7](func(j *core.Journal[P7]) error {
		if err := bump(j, c); err != nil { // joining: the helper takes j
			return err
		}
		_, err := core.TransactionV[int64, P7](func(j2 *core.Journal[P7]) (int64, error) { // want PM007
			return 1, bump(j2, c)
		})
		return err
	})
}

func crossPoolIsFine() {
	_ = core.Transaction[P7](func(j *core.Journal[P7]) error {
		return core.Transaction[Q7](func(k *core.Journal[Q7]) error {
			// Back on P7, two levels down: still inside P7's body.
			return core.Transaction[P7](func(j3 *core.Journal[P7]) error { // want PM007
				return nil
			})
		})
	})
}

func threeDeepReportsEachOnce() {
	_ = core.Transaction[P7](func(j *core.Journal[P7]) error {
		return core.Transaction[P7](func(j2 *core.Journal[P7]) error { // want PM007
			return core.Transaction[P7](func(j3 *core.Journal[P7]) error { // want PM007
				return nil
			})
		})
	})
}
