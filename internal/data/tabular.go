package data

// TabularImageSet wraps a preprocessed tabular Task as an ImageSet with one
// "channel" per feature and 1×1 spatial extent. The network training stack
// (train.Network with or without replicas, distnet) and its batch pipeline
// operate on ImageSets; this adapter lets the tabular datasets run through
// network models (models.MLP flattens the [n, features, 1, 1] batches back
// to [n, features]). The feature values are copied once; batching shuffles and
// gathers exactly as for images, so a tabular run is as deterministic as an
// image run at equal Seed.
func TabularImageSet(t *Task) *ImageSet {
	m := t.NumFeatures()
	classes := 2
	for _, y := range t.Y {
		if y+1 > classes {
			classes = y + 1
		}
	}
	s := &ImageSet{
		X: make([]float64, len(t.X)*m),
		Y: append([]int(nil), t.Y...),
		N: len(t.X), C: m, H: 1, W: 1,
		Classes: classes,
	}
	for i, row := range t.X {
		copy(s.X[i*m:(i+1)*m], row)
	}
	return s
}
