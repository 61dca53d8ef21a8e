"""Desk-scale lab for knowledge-graph-fused fine-tuning of a tiny seq2seq model.

Subpackage map:

* ``kg``         -- immutable knowledge-graph data model (triples, linking, sampling)
* ``embeddings`` -- translational KG embedding pre-training and cosine similarity
* ``autodiff``   -- minimal reverse-mode autodiff over float64 tensors
* ``model``      -- tiny encoder-decoder transformer with KG-augmented inputs
* ``trainer``    -- joint loss, Adam, pretrain/finetune loops, checkpoints
* ``data``       -- synthetic KG/QA generation and SQuAD v1.1 ingestion
* ``harness``    -- ablation / scale-sweep experiments, metrics, reports
* ``cli``        -- command-line entry point
"""

__version__ = "0.2.0"
