package nn

import "emblookup/internal/mathx"

// Replicas enable data-parallel training: a replica layer shares the weight
// matrices of its source (reads are safe while the optimizer is idle) but
// owns a private gradient buffer, so several goroutines can run
// forward/backward on shards of a batch without synchronization. After the
// shards finish, MergeGrads folds the replica gradients into the master
// parameters and the optimizer steps as usual.

// replicaParam derives a Param sharing W but owning a fresh Grad.
func replicaParam(p *Param) *Param {
	return &Param{W: p.W, Grad: mathx.NewMatrix(p.W.Rows, p.W.Cols)}
}

// MergeGrads adds each replica parameter's gradient into the matching
// master parameter and zeroes the replica gradient. The two slices must
// align (same order, same shapes).
func MergeGrads(master, replica []*Param) {
	for i, mp := range master {
		rp := replica[i]
		for j, g := range rp.Grad.Data {
			if g != 0 {
				mp.Grad.Data[j] += g
			}
		}
		rp.ZeroGrad()
	}
}

// Replica returns a conv layer sharing c's weights with private gradients.
func (c *Conv1D) Replica() *Conv1D {
	return &Conv1D{In: c.In, Out: c.Out, K: c.K,
		Weight: replicaParam(c.Weight), Bias: replicaParam(c.Bias)}
}

// Replica returns a linear layer sharing l's weights with private
// gradients.
func (l *Linear) Replica() *Linear {
	return &Linear{In: l.In, Out: l.Out,
		Weight: replicaParam(l.Weight), Bias: replicaParam(l.Bias)}
}

// Replica returns an MLP sharing m's weights with private gradients.
func (m *MLP) Replica() *MLP {
	return &MLP{L1: m.L1.Replica(), L2: m.L2.Replica()}
}

// Replica returns a CharCNN sharing m's weights with private gradients.
func (m *CharCNN) Replica() *CharCNN {
	out := &CharCNN{Convs: make([]*Conv1D, len(m.Convs))}
	for i, c := range m.Convs {
		out.Convs[i] = c.Replica()
	}
	return out
}
