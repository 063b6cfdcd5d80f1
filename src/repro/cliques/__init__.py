"""Clique-counting substrate for the TDS / kCLiDS density metrics.

``local`` enumerates k-cliques (triangles are ``k = 3``) with a
degree-ordered search (the kCLIST approach of Danisch et al.), for both
engines: the Spark engine ships the clique list the driver's set-up
builds. ``repro.core.spark_engine.cliques_df`` lists the same cliques
with DataFrame self-joins, for input that is already a DataFrame.
"""
from repro.cliques.local import count_per_vertex, enumerate_cliques

__all__ = ["enumerate_cliques", "count_per_vertex"]
