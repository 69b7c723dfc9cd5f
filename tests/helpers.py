"""Small translation helpers shared by the test modules."""


def idx(vocabulary, *texts):
    """Map code texts to a sorted index tuple over ``vocabulary``."""
    lookup = {code.text: i for i, code in enumerate(vocabulary)}
    return tuple(sorted(lookup[t] for t in texts))


def names(vocabulary, itemset):
    return tuple(vocabulary[i].text for i in itemset)


def mfs_by_text(mfs, vocabulary):
    """Render an {itemset: support} mapping with code texts as keys."""
    return {names(vocabulary, s): c for s, c in mfs.items()}


def frequent_by_text(frequent, vocabulary):
    return {names(vocabulary, fs.itemset): fs.support_count for fs in frequent}


def sweeps(monkeypatch, *modules):
    """Wrap each module's ``count_many``, one database pass per call.

    Returns a live list with one entry per call, in call order: the
    number of distinct masks that sweep counted.
    """
    swept = []

    def wrap(count_many):
        def counting(matrix, masks):
            counts = count_many(matrix, masks)
            swept.append(len(counts))
            return counts

        return counting

    for module in modules:
        monkeypatch.setattr(module, "count_many", wrap(module.count_many))
    return swept
